package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/pipeline"
)

// run executes one workload: set-ups, the timed epochs and, when traced, a
// second loader on the same tier and plan that times every layer. Every run
// ends with the artifact check.
func run(name string, w *workload, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	objects, err := loadInputs(name, w.images, seed)
	if err != nil {
		return nil, err
	}
	pipe := pipeline.Standard(pipeline.StandardOptions{CropSize: w.crop, FlipP: -1})
	led := &ledger{n: len(objects)}

	var su *setup
	var setupS, profileS, decideMS []float64
	for k := 0; k < w.setups; k++ {
		if su != nil {
			su.close()
		}
		if su, err = setUp(w, objects, pipe, led); err != nil {
			return nil, err
		}
		setupS = append(setupS, su.took.Seconds())
		profileS = append(profileS, su.profile.Seconds())
		decideMS = append(decideMS, float64(su.decide)/1e6)
	}
	defer func() { su.close() }()

	win, err := su.loader.timed(su, seconds, 1, minIntervals, led)
	if err != nil {
		return nil, err
	}
	win.check(led, su, "timed")

	res := &result{}
	if traced {
		// The traced loader replaces the timed one on the same tier and
		// plan, warms up the same way and trains as many epochs.
		su.loader.trainer.Close()
		tl, err := newLoader(su, pipe, true)
		if err != nil {
			return nil, err
		}
		su.loader = tl
		if err := su.warmUp(led); err != nil {
			return nil, err
		}
		twin, err := su.loader.timed(su, 0, len(win.reports), 0, led)
		if err != nil {
			return nil, err
		}
		twin.check(led, su, "traced")
		compareRuns(led, su, win, twin)
		des, err := replay(su, seed)
		if err != nil {
			return nil, fmt.Errorf("replay in the DES: %w", err)
		}
		res.Metrics = perLayer(su, win, twin, des, quantile(profileS, 0.5), quantile(decideMS, 0.5))
	} else {
		res.Metrics = endToEnd(win, setupS)
	}
	if err := checkArtifacts(led, su, objects, pipe, seed); err != nil {
		return nil, err
	}
	res.Correct = len(led.problems) == 0
	res.Attempted, res.Failed = led.attempted, led.failed
	report(os.Stderr, name, seed, su, win, led, res)
	return res, nil
}

func endToEnd(win *window, setupS []float64) map[string]metric {
	steps := millis(win.intervals)
	return map[string]metric{
		"samples_per_s":         {win.samplesPerSecond(), "samples/s"},
		"step_ms_p50":           {quantile(steps, 0.5), "ms"},
		"step_ms_p90":           {quantile(steps, 0.9), "ms"},
		"wire_bytes_per_sample": {float64(win.wireBytes()) / float64(win.samples()), "bytes"},
		"setup_s":               {quantile(setupS, 0.5), "s"},
		"peak_rss_mb":           {quantile(win.peakRSS, 0.5) / 1e6, "MB"},
	}
}

// compareRuns checks the traced run moved what the untraced one did: the
// same wire bytes, the same samples from each server, and, where the client
// routes by shard, every round trip through that route.
func compareRuns(led *ledger, su *setup, untraced, traced *window) {
	if a, b := untraced.wireBytes(), traced.wireBytes(); a != b {
		led.problem("traced run moved %d wire bytes, untraced %d", b, a)
	}
	for s := range untraced.after.served {
		a := untraced.after.served[s] - untraced.before.served[s]
		b := traced.after.served[s] - traced.before.served[s]
		if a != b {
			led.problem("server %d served %d samples traced, %d untraced", s, b, a)
		}
	}
	if _, _, sharded := su.loader.rtt.ShardInfo(); sharded && su.w.loader.Lookahead > 0 && traced.shardCalls != len(traced.rtts) {
		led.problem("traced loader routed %d of %d round trips by shard", traced.shardCalls, len(traced.rtts))
	}
}

// replay runs the measured trace and the plan through the DES with the
// workload's environment and loader shape.
func replay(su *setup, seed uint64) (engine.Result, error) {
	w := su.w
	tr := su.trace
	if su.tier.cacheBytes > 0 {
		tr, _ = cache.ApplyToTrace(tr, su.tier.cacheBytes, seed)
	}
	cfg := engine.Config{
		Trace: tr, Plan: su.decision.Plan, Env: w.env, BatchSize: w.batch,
		Shards: w.env.Shards, ShuffleSeed: seed | 1,
	}
	if w.loader.Lookahead > 0 {
		cfg.Lookahead = w.loader.Lookahead
	} else {
		// trainsim's reactive window: 2×Workers chunks of FetchBatchSize.
		cfg.PrefetchWindow = 2 * w.loader.Workers * max(w.loader.FetchBatchSize, 1)
	}
	if w.loader.VarianceAware {
		cfg.PrepSched, cfg.PrepWorkers = engine.PrepSchedSteal, w.loader.Workers
	}
	return engine.Run(cfg)
}

// perLayer derives the per-layer metrics from the traced window (counter
// deltas, the round-trip times, the trainer's histograms), the
// set-up and the DES replay.
func perLayer(su *setup, untraced, traced *window, des engine.Result, profileS, decideMS float64) map[string]metric {
	b, a := traced.before, traced.after
	wall := traced.wall.Seconds()
	samples := float64(traced.samples())
	bytes := float64(traced.wireBytes())
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	var localCPU, gpuBusy time.Duration
	offloads := 0
	for _, r := range traced.reports {
		localCPU += r.LocalCPU
		gpuBusy += r.GPUBusy
		offloads += r.Offloaded
	}
	execS := float64(a.cpuNanos-b.cpuNanos) / 1e9
	saved := float64(len(traced.reports))*float64(su.noOffBytes) - bytes

	var served []float64
	var servedSum float64
	for s := range a.served {
		served = append(served, float64(a.served[s]-b.served[s]))
		servedSum += served[s]
	}
	prep := su.loader.metrics.Histogram("trainer.preprocess_seconds")
	rtts := millis(traced.rtts)
	hits, misses := float64(a.cache.Hits-b.cache.Hits), float64(a.cache.Misses-b.cache.Misses)
	pf0, pf1 := b.prefetch, a.prefetch
	ps0, ps1 := b.prep, a.prep
	plan := su.decision.Plan
	measuredEpoch := untraced.wall.Seconds() / float64(len(untraced.reports))

	return map[string]metric{
		"netsim.link_busy_frac":             {ratio(bytes, su.tier.linkRate*float64(len(a.served))*wall), "ratio"},
		"policy.offloaded_frac":             {float64(plan.OffloadedCount()) / float64(plan.N()), "ratio"},
		"storage.exec_ms_per_offload":       {ratio(execS*1e3, float64(offloads)), "ms"},
		"storage.exec_busy_frac":            {ratio(execS, float64(su.tier.cores)*wall), "ratio"},
		"storage.bytes_saved_per_exec_s":    {ratio(saved, execS), "bytes/s"},
		"trainsim.local_prep_ms_per_sample": {ratio(float64(localCPU)/1e6, samples), "ms"},
		"pipeline.preprocess_ms_p50":        {prep.Quantile(0.5) * 1e3, "ms"},
		"pipeline.preprocess_ms_p99":        {prep.Quantile(0.99) * 1e3, "ms"},
		"cache.hit_ratio":                   {ratio(hits, hits+misses), "ratio"},
		"prepsched.steal_frac":              {ratio(float64(ps1.Steals-ps0.Steals), float64(ps1.Steals-ps0.Steals+ps1.OwnPops-ps0.OwnPops)), "ratio"},
		"prepsched.stalls_per_sample":       {ratio(float64(ps1.Stalls-ps0.Stalls), samples), "ratio"},
		"prepsched.heavy_frac":              {ratio(float64(ps1.Heavy-ps0.Heavy), float64(ps1.Heavy-ps0.Heavy+ps1.Light-ps0.Light)), "ratio"},
		"prefetch.budget_stalls":            {float64(pf1.BudgetStalls - pf0.BudgetStalls), "count"},
		"prefetch.horizon_stalls":           {float64(pf1.HorizonStalls - pf0.HorizonStalls), "count"},
		"prefetch.staged_peak_mb":           {float64(pf1.StagedPeakBytes) / 1e6, "MB"},
		"storage.client_rtt_ms_p50":         {quantile(rtts, 0.5), "ms"},
		"storage.client_rtt_ms_p99":         {quantile(rtts, 0.99), "ms"},
		"storage.rtts_per_sample":           {ratio(float64(len(traced.rtts)), samples), "ratio"},
		"storage.admission_queued_frac":     {ratio(float64(a.adm.Queued-b.adm.Queued), float64(a.adm.Admitted-b.adm.Admitted)), "ratio"},
		"storage.admission_shed":            {float64(a.adm.Shed - b.adm.Shed), "count"},
		"cluster.shard_skew":                {ratio(slices.Max(served), servedSum/float64(len(served))), "ratio"},
		"trainsim.data_stall_frac":          {1 - gpuBusy.Seconds()/wall, "ratio"},
		"profiler.profile_epoch_s":          {profileS, "s"},
		"core.decide_ms":                    {decideMS, "ms"},
		"policy.predicted_epoch_s":          {su.decision.Planned.Predicted().Seconds(), "s"},
		"engine.des_epoch_s":                {des.EpochTime.Seconds(), "s"},
		"engine.des_gap_frac":               {ratio(abs(des.EpochTime.Seconds()-measuredEpoch), measuredEpoch), "ratio"},
		"trace.overhead_frac":               {1 - traced.samplesPerSecond()/untraced.samplesPerSecond(), "ratio"},
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// report writes the run in readable form to f.
func report(f *os.File, name string, seed uint64, su *setup, win *window, led *ledger, res *result) {
	fmt.Fprintf(f, "%s seed %d: %d samples, plan offloads %d (predicted epoch %.3fs, %s-bound)\n",
		name, seed, led.n, su.decision.Plan.OffloadedCount(), su.decision.Planned.Predicted().Seconds(), su.decision.Planned.Dominant())
	fmt.Fprintf(f, "timed: %d epochs, %d samples in %.3fs, %d step intervals\n",
		len(win.reports), win.samples(), win.wall.Seconds(), len(win.intervals))
	fmt.Fprint(f, "epoch seconds:")
	for _, r := range win.reports {
		fmt.Fprintf(f, " %.3f", r.Duration.Seconds())
	}
	fmt.Fprintln(f)
	fmt.Fprintf(f, "failed_frac %.6f (%d of %d samples attempted over all epochs)\n",
		float64(led.failed)/float64(led.attempted), led.failed, led.attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range led.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
}
