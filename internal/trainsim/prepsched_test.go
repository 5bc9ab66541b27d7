package trainsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/policy"
	"repro/internal/prepsched"
)

// TestPrepschedConfigValidation extends the typed-config table to the
// variance-aware knobs: every invalid pairing gets ErrPrepschedConfig, never
// a silent fallback.
func TestPrepschedConfigValidation(t *testing.T) {
	h := newHarness(t, 4, 1)
	classify := func(int) prepsched.Class { return prepsched.Light }
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"variance-aware without classify", func(c *Config) {
			c.VarianceAware = true
		}},
		{"classify without variance-aware", func(c *Config) {
			c.Classify = classify
		}},
		{"prep metrics without variance-aware", func(c *Config) {
			c.PrepMetrics = &prepsched.Metrics{}
		}},
	}
	for _, tc := range cases {
		cfg := h.config()
		tc.mut(&cfg)
		if _, err := New(cfg); !errors.Is(err, ErrPrepschedConfig) {
			t.Errorf("%s: err = %v, want ErrPrepschedConfig", tc.name, err)
		}
	}

	// The valid combination constructs at the default lookahead depth
	// (0 means 2×Workers), and a private Metrics is wired when none is
	// supplied.
	cfg := h.config()
	cfg.VarianceAware = true
	cfg.Classify = classify
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.cfg.Lookahead != 2*cfg.Workers {
		t.Fatalf("variance-aware default lookahead %d, want %d", tr.cfg.Lookahead, 2*cfg.Workers)
	}
	if tr.PrepMetrics() == nil {
		t.Fatal("no private prepsched metrics wired")
	}
}

// TestVarianceAwareMatchesFIFO is the bit-identity acceptance check: the
// same seeded sharded epoch run under plain lookahead (FIFO handoff) and
// under the variance-aware work-stealing pool must produce identical
// training outcomes — same samples, offload count, and wire bytes (artifact
// sizes are deterministic, so equal bytes means equal artifacts). Only
// completion timing may differ.
func TestVarianceAwareMatchesFIFO(t *testing.T) {
	const n = 48
	_, cfg := lookaheadCluster(t, n, 3, nil)
	cfg.Lookahead = 4
	plan, err := policy.NewUniformPlan("half", n, 2)
	if err != nil {
		t.Fatal(err)
	}

	fifo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fifo.Close()
	r1, err := fifo.RunEpoch(1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Classify by sample index parity: a deterministic, input-independent
	// stand-in for the profiled-cost classifier that still exercises both
	// lanes on every worker.
	cfgVA := cfg
	cfgVA.VarianceAware = true
	cfgVA.Classify = func(sample int) prepsched.Class {
		if sample%5 == 0 {
			return prepsched.Heavy
		}
		return prepsched.Light
	}
	va, err := New(cfgVA)
	if err != nil {
		t.Fatal(err)
	}
	defer va.Close()
	r2, err := va.RunEpoch(1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}

	if r2.Samples != r1.Samples || r2.BytesFetched != r1.BytesFetched || r2.Offloaded != r1.Offloaded {
		t.Fatalf("variance-aware epoch (samples %d, bytes %d, offloaded %d) != FIFO (samples %d, bytes %d, offloaded %d)",
			r2.Samples, r2.BytesFetched, r2.Offloaded, r1.Samples, r1.BytesFetched, r1.Offloaded)
	}
	wantHeavy := 0
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			wantHeavy++
		}
	}
	if r2.Heavy != wantHeavy {
		t.Fatalf("Heavy = %d, want %d", r2.Heavy, wantHeavy)
	}
	if r1.Heavy != 0 {
		t.Fatalf("FIFO run reported Heavy = %d", r1.Heavy)
	}
	s := va.PrepMetrics().Snapshot()
	if s.Light+s.Heavy != int64(n) {
		t.Fatalf("prepsched dispatched %d+%d, want %d", s.Light, s.Heavy, n)
	}
	if s.Heavy != int64(wantHeavy) {
		t.Fatalf("prepsched heavy %d, want %d", s.Heavy, wantHeavy)
	}
	if s.OwnPops+s.Steals != int64(n) {
		t.Fatalf("prepsched takes %d+%d, want %d", s.OwnPops, s.Steals, n)
	}
}

// TestVarianceAwareDeterministicRepeat runs the variance-aware epoch twice at
// the same seed: reports must match field for field (Duration aside), the
// scheduling nondeterminism confined entirely to timing.
func TestVarianceAwareDeterministicRepeat(t *testing.T) {
	const n = 32
	_, cfg := lookaheadCluster(t, n, 2, nil)
	cfg.Lookahead = 3
	cfg.VarianceAware = true
	cfg.Classify = func(sample int) prepsched.Class {
		if sample%4 == 0 {
			return prepsched.Heavy
		}
		return prepsched.Light
	}
	run := func() EpochReport {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		r, err := tr.RunEpoch(2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	a.Duration, b.Duration = 0, 0
	a.GPUBusy, b.GPUBusy = 0, 0
	a.GPUUtilization, b.GPUUtilization = 0, 0
	a.LocalCPU, b.LocalCPU = 0, 0
	if a != b {
		t.Fatalf("variance-aware repeat diverged:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestVarianceAwareDegradedPartition: degraded-mode accounting survives the
// pool — with one shard partitioned for the whole epoch, exactly the dead
// shard's samples fail and every healthy sample still trains, whichever
// worker ends up taking each failed entry.
func TestVarianceAwareDegradedPartition(t *testing.T) {
	const n = 60
	c, cfg := lookaheadCluster(t, n, 3, &chaos.Plan{Seed: 2})
	cfg.Lookahead = 6
	cfg.LookaheadHorizon = n
	cfg.VarianceAware = true
	cfg.Classify = func(sample int) prepsched.Class {
		if sample%3 == 0 {
			return prepsched.Heavy
		}
		return prepsched.Light
	}
	owned := len(c.ShardMap().Owned(n, 1))
	if owned == 0 {
		t.Fatal("shard 1 owns nothing; test is vacuous")
	}
	tr, err := New(cfg) // dial while healthy, then sever
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := c.PartitionShard(1, true); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r, err := tr.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != owned {
		t.Fatalf("Failed = %d, want exactly the dead shard's %d samples", r.Failed, owned)
	}
	if r.Samples != n-owned {
		t.Fatalf("Samples = %d, want %d healthy", r.Samples, n-owned)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("degraded epoch took %v — fail-fast is not engaging", d)
	}
}
