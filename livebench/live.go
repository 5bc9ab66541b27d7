package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/prefetch"
	"repro/internal/prepsched"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

const (
	profileEpoch = 1 // epoch 1 profiles; the warm-up and timed epochs follow
	// warmupEpochs run untimed under the plan before timing, so the local
	// cache is filled and lazy set-up is done.
	warmupEpochs = 1
	// minIntervals sizes a timed run so that at least ten step intervals lie
	// beyond the 90th percentile.
	minIntervals = 100
	// checkedSamples is how many samples the artifact check compares.
	checkedSamples = 8
)

// ledger accounts for every sample of every epoch a run trains, and collects
// the checks that failed.
type ledger struct {
	n         int
	attempted int
	failed    int
	problems  []string
}

func (l *ledger) epoch(phase string, rep trainsim.EpochReport) {
	l.attempted += l.n
	missing := l.n - rep.Samples - rep.Failed
	l.failed += rep.Failed + max(missing, 0)
	if missing != 0 {
		l.problem("%s epoch %d: %d trained + %d failed of %d samples", phase, rep.Epoch, rep.Samples, rep.Failed, l.n)
	}
}

func (l *ledger) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// setup is one started tier with a loader that has profiled, planned and
// warmed up: the paper's flow up to the first timed epoch.
type setup struct {
	w        *workload
	tier     *tier
	loader   *loader
	trace    *dataset.Trace
	decision core.Decision
	// classes holds each sample's variance-aware class once the profile
	// exists; nil (every sample light) while profiling.
	classes    atomic.Pointer[[]prepsched.Class]
	noOffBytes int64 // wire bytes of the profiling epoch, which offloads nothing
	profile    time.Duration
	decide     time.Duration
	took       time.Duration // tier start to the first timed epoch
}

func setUp(w *workload, objects [][]byte, pipe *pipeline.Pipeline, led *ledger) (*setup, error) {
	start := time.Now()
	t, err := w.start(objects, pipe)
	if err != nil {
		return nil, fmt.Errorf("start tier: %w", err)
	}
	su := &setup{w: w, tier: t}
	if su.loader, err = newLoader(su, pipe, false); err != nil {
		t.close()
		return nil, err
	}
	if err := su.profileAndPlan(led); err != nil {
		su.close()
		return nil, err
	}
	if err := su.warmUp(led); err != nil {
		su.close()
		return nil, err
	}
	su.took = time.Since(start)
	return su, nil
}

func (su *setup) profileAndPlan(led *ledger) error {
	col, err := profiler.NewCollector(su.loader.trainer.N())
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := su.loader.trainer.RunEpoch(profileEpoch, nil, col)
	if err != nil {
		return fmt.Errorf("profiling epoch: %w", err)
	}
	su.profile = time.Since(start)
	led.epoch("profiling", rep)
	su.noOffBytes = rep.BytesFetched
	if su.trace, err = col.Trace("livebench"); err != nil {
		return err
	}

	start = time.Now()
	su.decision, err = core.New().Decide(su.trace, su.w.env)
	if err != nil {
		return fmt.Errorf("decide: %w", err)
	}
	if su.w.loader.VarianceAware {
		cl, err := prepsched.FromTrace(su.trace, 0)
		if err != nil {
			return err
		}
		classes := make([]prepsched.Class, su.trace.N())
		for i := range classes {
			classes[i] = cl.Class(su.trace.Records[i].TotalTime())
		}
		su.classes.Store(&classes)
	}
	su.decide = time.Since(start)
	return nil
}

// warmUp runs the untimed epochs under the plan on the current loader.
func (su *setup) warmUp(led *ledger) error {
	for e := 0; e < warmupEpochs; e++ {
		rep, err := su.loader.trainer.RunEpoch(profileEpoch+1+uint64(e), su.decision.Plan, nil)
		if err != nil {
			return fmt.Errorf("warm-up epoch: %w", err)
		}
		led.epoch("warm-up", rep)
	}
	return nil
}

// firstTimed is the number of the first timed epoch.
func (su *setup) firstTimed() uint64 { return profileEpoch + 1 + warmupEpochs }

func (su *setup) close() {
	su.loader.trainer.Close()
	su.tier.close()
}

// loader is one trainer on a set-up tier, with the probes its run reads.
type loader struct {
	trainer  *trainsim.Trainer
	clock    *stepClock
	client   trainsim.StorageClient // as dialed, below any probe
	rtt      *rttProbe              // traced loaders only
	metrics  *metrics.Registry      // traced loaders only
	prefetch *prefetch.Metrics
	prep     *prepsched.Metrics // variance-aware loaders only
}

// newLoader builds a trainer on su's tier. A traced loader also times every
// round trip through an rttProbe and collects the trainer's histograms;
// everything else about the two is the same.
func newLoader(su *setup, pipe *pipeline.Pipeline, traced bool) (*loader, error) {
	ld := &loader{clock: &stepClock{}, prefetch: &prefetch.Metrics{}}
	cfg := su.w.loader
	cfg.Pipeline = pipe
	cfg.GPU = su.w.env.GPU
	cfg.BatchSize = su.w.batch
	cfg.JobID = jobID
	cfg.Shuffle = true
	cfg.Clock = ld.clock
	cfg.DegradedMode = true // count failed samples instead of aborting
	cfg.PrefetchMetrics = ld.prefetch
	if cfg.VarianceAware {
		ld.prep = &prepsched.Metrics{}
		cfg.PrepMetrics = ld.prep
		cfg.Classify = func(sample int) prepsched.Class {
			if c := su.classes.Load(); c != nil {
				return (*c)[sample]
			}
			return prepsched.Light
		}
	}
	if traced {
		ld.metrics = metrics.NewRegistry()
		cfg.Metrics = ld.metrics
	}
	cfg.DialClient = func() (trainsim.StorageClient, error) {
		c, err := su.tier.dial()
		if err != nil {
			return nil, err
		}
		ld.client = c
		if traced {
			ld.rtt = &rttProbe{StorageClient: c}
			return ld.rtt, nil
		}
		return c, nil
	}
	t, err := trainsim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("new trainer: %w", err)
	}
	ld.trainer = t
	return ld, nil
}

// tally is a snapshot of the cumulative counters whose deltas over a window
// give the per-layer metrics.
type tally struct {
	served   []uint64 // samples each server has served
	cpuNanos uint64   // executor CPU over all servers
	adm      storage.AdmissionStats
	cache    cache.Stats
	prefetch prefetch.MetricsSnapshot
	prep     prepsched.MetricsSnapshot
}

func (ld *loader) tally(t *tier) tally {
	var s tally
	for _, c := range t.counters {
		s.served = append(s.served, c.SamplesServed.Load())
		s.cpuNanos += c.CPUNanos.Load()
	}
	if t.admission != nil {
		s.adm = t.admission.Stats()
	}
	if fc, ok := ld.client.(*cache.FetchingCache); ok {
		s.cache = fc.Stats()
	}
	s.prefetch = ld.prefetch.Snapshot()
	s.prep = ld.prep.Snapshot()
	return s
}

// window is what one loader measured over its timed epochs.
type window struct {
	reports       []trainsim.EpochReport
	wall          time.Duration   // summed over the epochs
	intervals     []time.Duration // between consecutive step starts of one epoch
	peakRSS       []float64       // bytes, per epoch
	before, after tally
	rtts          []time.Duration // traced loaders only
	shardCalls    int
}

// timed trains epochs under the plan from su.firstTimed() on: at least
// minEpochs, and on until the wall time reaches seconds and the epochs hold
// minIntervals step intervals. The peak resident set is taken per epoch.
func (ld *loader) timed(su *setup, seconds time.Duration, minEpochs, minIntervals int, led *ledger) (*window, error) {
	win := &window{before: ld.tally(su.tier)}
	if ld.rtt != nil {
		ld.rtt.take() // drop the warm-up's round trips
	}
	for e := su.firstTimed(); ; e++ {
		// Each epoch's peak resident set is taken from a freshly collected
		// heap, so it does not depend on when the last collection ran.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		epochMark := ld.clock.mark()
		start := time.Now()
		rep, err := ld.trainer.RunEpoch(e, su.decision.Plan, nil)
		if err != nil {
			return nil, fmt.Errorf("timed epoch %d: %w", e, err)
		}
		win.wall += time.Since(start)
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		led.epoch("timed", rep)
		win.reports = append(win.reports, rep)
		win.peakRSS = append(win.peakRSS, float64(rss))
		win.intervals = append(win.intervals, ld.clock.intervals(epochMark)...)
		if len(win.reports) >= minEpochs && win.wall >= seconds && len(win.intervals) >= minIntervals {
			break
		}
	}
	win.after = ld.tally(su.tier)
	if ld.rtt != nil {
		win.rtts, win.shardCalls = ld.rtt.take()
	}
	return win, nil
}

func (w *window) samples() (n int) {
	for _, r := range w.reports {
		n += r.Samples
	}
	return n
}

func (w *window) wireBytes() (n int64) {
	for _, r := range w.reports {
		n += r.BytesFetched
	}
	return n
}

// samplesPerSecond is the median over the timed epochs of samples trained ÷
// epoch wall time, so one epoch slowed by a neighbour on the machine does not
// move it.
func (w *window) samplesPerSecond() float64 {
	rates := make([]float64, len(w.reports))
	for i, r := range w.reports {
		rates[i] = float64(r.Samples) / r.Duration.Seconds()
	}
	return quantile(rates, 0.5)
}

// check records the window's invariants: every epoch of one plan moves the
// same wire bytes and offloads exactly the plan's samples.
func (w *window) check(led *ledger, su *setup, phase string) {
	want := su.decision.Plan.OffloadedCount()
	for _, r := range w.reports {
		if r.BytesFetched != w.reports[0].BytesFetched {
			led.problem("%s epoch %d moved %d wire bytes, epoch %d moved %d", phase, r.Epoch, r.BytesFetched, w.reports[0].Epoch, w.reports[0].BytesFetched)
		}
		if r.Failed == 0 && r.Offloaded != want {
			led.problem("%s epoch %d offloaded %d samples, the plan offloads %d", phase, r.Epoch, r.Offloaded, want)
		}
	}
}

// checkArtifacts fetches a seeded subset of samples through a fresh session
// at the plan's cut, finishes each locally, and checks the tensor is bit for
// bit the one a local pipeline.Run of the sample's raw bytes gives. Half the
// subset is drawn from the offloaded samples when the plan has any.
func checkArtifacts(led *ledger, su *setup, objects [][]byte, pipe *pipeline.Pipeline, seed uint64) error {
	c, err := su.tier.dial()
	if err != nil {
		return fmt.Errorf("artifact check: %w", err)
	}
	defer c.Close()
	plan := su.decision.Plan
	var offloaded []int
	for i := 0; i < plan.N(); i++ {
		if plan.Split(i) > 0 {
			offloaded = append(offloaded, i)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xc4ec))
	epoch := su.firstTimed()
	for k := 0; k < checkedSamples; k++ {
		i := rng.IntN(plan.N())
		if k%2 == 0 && len(offloaded) > 0 {
			i = offloaded[rng.IntN(len(offloaded))]
		}
		split := plan.Split(i)
		res, err := c.Fetch(context.Background(), uint32(i), split, epoch)
		if err != nil {
			return fmt.Errorf("artifact check: fetch sample %d: %w", i, err)
		}
		s := pipeline.Seed{Job: jobID, Epoch: epoch, Sample: uint64(i)}
		got, err := pipe.RunRange(res.Artifact, split, pipe.Len(), s)
		if err != nil {
			return fmt.Errorf("artifact check: finish sample %d: %w", i, err)
		}
		want, err := pipe.Run(objects[i], s)
		if err != nil {
			return fmt.Errorf("artifact check: run sample %d: %w", i, err)
		}
		g, gerr := got.Encode()
		wb, werr := want.Encode()
		if gerr != nil || werr != nil || want.Kind != pipeline.KindTensor || !bytes.Equal(g, wb) {
			led.problem("sample %d at cut %d: live tensor differs from a local run", i, split)
		}
		got.Release()
		want.Release()
	}
	return nil
}
