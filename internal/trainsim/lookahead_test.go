package trainsim

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/prefetch"
	"repro/internal/storage"
)

func TestLookaheadConfigValidation(t *testing.T) {
	h := newHarness(t, 4, 1)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative lookahead", func(c *Config) { c.Lookahead = -1 }},
		{"negative horizon", func(c *Config) { c.LookaheadHorizon = -1 }},
	} {
		cfg := h.config()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Lookahead 0 means 2×Workers round trips per shard, the depth the
	// scheduler runs at when no knob is set.
	cfg := h.config()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.cfg.Lookahead != 2*cfg.Workers {
		t.Fatalf("default lookahead %d, want %d", tr.cfg.Lookahead, 2*cfg.Workers)
	}
	if tr.cfg.StagingBytes != DefaultStagingBytes {
		t.Fatalf("staging default %d, want %d", tr.cfg.StagingBytes, DefaultStagingBytes)
	}
	// The staging knobs are plain tunables: no Lookahead needed.
	ledger, err := cache.NewStaging(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := h.config()
	cfg2.LookaheadHorizon, cfg2.StagingBytes, cfg2.StagingLedger = 64, 1<<20, ledger
	tr2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	tr2.Close()
}

// tensorRecorder wraps the trainer's session and keeps a wire-encoded copy
// of the artifact it delivers for each watched sample, so a test can check
// what the loader trained on against pipeline.Run over the raw object —
// an oracle that does not depend on how the loader schedules its fetches.
type tensorRecorder struct {
	StorageClient
	watch map[uint32]bool
	mu    sync.Mutex
	got   map[uint32]recordedArtifact
}

type recordedArtifact struct {
	split int
	enc   []byte
}

func newTensorRecorder(c StorageClient, samples ...uint32) *tensorRecorder {
	r := &tensorRecorder{StorageClient: c, watch: map[uint32]bool{}, got: map[uint32]recordedArtifact{}}
	for _, s := range samples {
		r.watch[s] = true
	}
	return r
}

func (r *tensorRecorder) keep(res ...storage.FetchResult) {
	for _, x := range res {
		if x.Err != nil || !r.watch[x.Sample] {
			continue
		}
		enc, err := x.Artifact.Encode()
		if err != nil {
			continue // check reports the sample as never delivered
		}
		r.mu.Lock()
		r.got[x.Sample] = recordedArtifact{split: x.Split, enc: enc}
		r.mu.Unlock()
	}
}

func (r *tensorRecorder) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	res, err := r.StorageClient.Fetch(ctx, sample, split, epoch)
	if err == nil {
		r.keep(res)
	}
	return res, err
}

func (r *tensorRecorder) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	res, err := r.StorageClient.FetchBatch(ctx, samples, splits, epoch)
	if err == nil {
		r.keep(res...)
	}
	return res, err
}

func (r *tensorRecorder) FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	res, err := r.StorageClient.FetchShard(ctx, shard, samples, splits, epoch)
	if err == nil {
		r.keep(res...)
	}
	return res, err
}

// check finishes every watched sample's recorded artifact locally and
// requires the tensor to be bit-identical to the full pipeline run over the
// stored raw object.
func (r *tensorRecorder) check(t *testing.T, pipe *pipeline.Pipeline, store *storage.Store, job, epoch uint64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range r.watch {
		rec, ok := r.got[s]
		if !ok {
			t.Errorf("sample %d never delivered", s)
			continue
		}
		seed := pipeline.Seed{Job: job, Epoch: epoch, Sample: uint64(s)}
		a, err := pipeline.DecodeArtifact(rec.enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pipe.RunRange(a, rec.split, pipe.Len(), seed)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := store.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe.Run(raw, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("sample %d (split %d): tensor differs from pipeline.Run on the raw object", s, rec.split)
		}
	}
}

// TestLookaheadEpochSingleServer: lookahead over a plain (non-sharded)
// client falls back to single-link scheduling and still trains the full
// epoch: every sample once, each served once, tensors bit-identical to the
// unsplit pipeline.
func TestLookaheadEpochSingleServer(t *testing.T) {
	const n = 32
	h := newHarness(t, n, 4)

	cfg := h.config()
	cfg.Lookahead = 3
	cfg.FetchBatchSize = 4
	var rec *tensorRecorder
	inner := cfg.DialClient
	cfg.DialClient = func() (StorageClient, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		rec = newTensorRecorder(c, 0, 5, 17, 31)
		return rec, nil
	}
	la, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	r, err := la.RunEpoch(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != n || r.Offloaded != 0 {
		t.Fatalf("epoch trained %d samples (%d offloaded), want %d raw", r.Samples, r.Offloaded, n)
	}
	if served := h.server.Counters().SamplesServed.Load(); served != n {
		t.Fatalf("server served %d samples, want %d", served, n)
	}
	rec.check(t, h.pipe, h.store, cfg.JobID, 1)
	snap := la.PrefetchMetrics().Snapshot()
	if snap.Completed != int64(r.Samples) || snap.Raw != int64(r.Samples) {
		t.Fatalf("prefetch counters %+v for %d raw samples", snap, r.Samples)
	}
}

// lookaheadStore is the synthetic dataset behind lookaheadCluster; it is
// deterministic, so a test can rebuild it to read the raw objects.
func lookaheadStore(t testing.TB, n int) *storage.Store {
	t.Helper()
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "lookahead", N: n, Seed: 13, MinDim: 48, MaxDim: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func lookaheadCluster(t testing.TB, n, shards int, plan *chaos.Plan) (*cluster.Cluster, Config) {
	t.Helper()
	store := lookaheadStore(t, n)
	pipe := pipeline.Standard(pipeline.StandardOptions{CropSize: 32, FlipP: -1})
	c, err := cluster.Launch(cluster.Config{
		Shards:        shards,
		Store:         store,
		Pipeline:      pipe,
		CoresPerShard: 2,
		Chaos:         plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cfg := Config{
		DialClient: func() (StorageClient, error) {
			return c.NewShardedClientWithPolicy(storage.ClientOptions{JobID: 7},
				storage.RetryPolicy{Attempts: 2, BaseBackoff: -1, Jitter: -1}, true)
		},
		Workers:        3,
		Pipeline:       pipe,
		GPU:            gpu.AlexNet,
		BatchSize:      8,
		JobID:          7,
		Shuffle:        true,
		FetchBatchSize: 4,
		DegradedMode:   true,
	}
	return c, cfg
}

// TestLookaheadShardedMatchesOracles drives the scheduler over a 3-shard
// tier with an offloading plan and checks the epoch against oracles that do
// not depend on the loader: every sample trained and served exactly once,
// the plan's offload count, and tensors bit-identical to pipeline.Run.
func TestLookaheadShardedMatchesOracles(t *testing.T) {
	const n = 48
	c, cfg := lookaheadCluster(t, n, 3, nil)
	plan, err := policy.NewUniformPlan("half", n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lookahead = 4
	var rec *tensorRecorder
	inner := cfg.DialClient
	cfg.DialClient = func() (StorageClient, error) {
		sc, err := inner()
		if err != nil {
			return nil, err
		}
		rec = newTensorRecorder(sc, 1, 12, 30, 47)
		return rec, nil
	}
	la, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	r, err := la.RunEpoch(1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != n || r.Failed != 0 {
		t.Fatalf("samples %d (failed %d), want %d", r.Samples, r.Failed, n)
	}
	if want := plan.OffloadedCount(); r.Offloaded != want {
		t.Fatalf("offloaded %d, want the plan's %d", r.Offloaded, want)
	}
	var served uint64
	for _, ctr := range c.Counters() {
		served += ctr.SamplesServed.Load()
	}
	if served != n {
		t.Fatalf("shards served %d samples, want %d", served, n)
	}
	rec.check(t, cfg.Pipeline, lookaheadStore(t, n), cfg.JobID, 1)
	snap := la.PrefetchMetrics().Snapshot()
	if snap.Offloaded != int64(n) {
		t.Fatalf("prefetch tier accounting %+v, want %d offloaded", snap, n)
	}
}

// TestLookaheadDegradedPartition: with one shard partitioned for the whole
// epoch and a deep lookahead in flight, exactly the dead shard's samples
// fail (EpochReport.Failed) and every healthy sample still trains.
func TestLookaheadDegradedPartition(t *testing.T) {
	const n = 60
	c, cfg := lookaheadCluster(t, n, 3, &chaos.Plan{Seed: 2})
	cfg.Lookahead = 6
	cfg.LookaheadHorizon = n // deep: the whole epoch is eligible
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
	snap := tr.PrefetchMetrics().Snapshot()
	if snap.Failed != int64(owned) {
		t.Fatalf("prefetch failed counter %d, want %d", snap.Failed, owned)
	}
	// Fail-fast: the epoch must not serialize a retry storm per dead sample.
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("degraded epoch took %v — fail-fast is not engaging", d)
	}
}

// TestLookaheadReplanRotatesCuts: ApplySnapshot mid-training rotates the cut
// source without restarting — the next lookahead epoch fetches under the new
// snapshot's splits, and the rotation is counted.
func TestLookaheadReplanRotatesCuts(t *testing.T) {
	const n = 24
	_, cfg := lookaheadCluster(t, n, 2, nil)
	cfg.Lookahead = 3
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	noOff, err := policy.NewUniformPlan("v1", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	off, err := policy.NewUniformPlan("v2", n, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := tr.RunEpochSnapshot(1, &policy.PlanSnapshot{Version: 1, Plan: noOff, Epoch: 1, Reason: "initial"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Offloaded != 0 {
		t.Fatalf("epoch 1 offloaded %d under the no-offload plan", r1.Offloaded)
	}
	// The control plane replans: the trainer learns via ApplySnapshot (the
	// OnReplan hook path), not by restarting.
	tr.ApplySnapshot(&policy.PlanSnapshot{Version: 2, Plan: off, Epoch: 2, Reason: "bandwidth-drift"})
	r2, err := tr.RunEpochSnapshot(2, &policy.PlanSnapshot{Version: 2, Plan: off, Epoch: 2, Reason: "bandwidth-drift"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Offloaded != n {
		t.Fatalf("epoch 2 offloaded %d, want %d under the rotated plan", r2.Offloaded, n)
	}
	if got := tr.PrefetchMetrics().Snapshot().Replans; got != 1 {
		t.Fatalf("replans counter %d, want 1", got)
	}
	var _ prefetch.Ledger = (*cache.Staging)(nil) // compile-time: ledger contract
}
