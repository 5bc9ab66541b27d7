package main

// The -adaptive scenario: the storage link is reshaped 500→250 Mbps
// mid-run and the adaptive controller replans at the next epoch boundary.
// The record (BENCH_pr5.json) compares adaptive, static and oracle epoch
// times.

import (
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/profiler"
)

// adaptiveReport is the JSON shape of the adaptive control-plane scenario:
// the link is reshaped 500→250 Mbps after epoch 2 and the adaptive run is
// compared against the frozen initial plan and against an oracle planned
// directly for the degraded link.
type adaptiveReport struct {
	Kind        string  `json:"kind"` // always "BENCH"
	PR          int     `json:"pr"`
	Description string  `json:"description"`
	GoVersion   string  `json:"go_version"`
	Samples     int     `json:"samples"`
	BaseMbps    float64 `json:"base_mbps"`
	ReshapeMbps float64 `json:"reshape_mbps"`
	// ReshapeEpoch is the first epoch the degraded link applies to.
	ReshapeEpoch uint64             `json:"reshape_epoch"`
	Adaptive     []core.SimEpoch    `json:"adaptive_epochs"`
	Static       []core.SimEpoch    `json:"static_epochs"`
	History      []core.ReplanEvent `json:"replan_history"`
	// OracleEpochSeconds is one degraded epoch under the oracle plan.
	OracleEpochSeconds float64 `json:"oracle_epoch_seconds"`
	// AdaptiveVsOracle and StaticVsAdaptive summarize the post-replan tail:
	// mean epoch-time ratios (1.0 = parity; lower is better for the first).
	AdaptiveVsOracle float64 `json:"adaptive_vs_oracle"`
	StaticVsAdaptive float64 `json:"static_vs_adaptive"`
}

func runAdaptive(seed uint64, _ io.Writer) (any, error) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(2000), seed)
	if err != nil {
		return nil, err
	}
	// Two storage cores keep the offload crossover bandwidth-dependent (with
	// plentiful cores the same plan is optimal at every link rate and the
	// scenario shows nothing).
	env := policy.Env{
		Bandwidth:       netsim.Mbps(500),
		ComputeCores:    48,
		StorageCores:    2,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	const epochs = 6
	const reshapeEpoch = 3
	degraded := env
	degraded.Bandwidth = netsim.Mbps(250)
	envAt := func(e uint64) policy.Env {
		if e >= reshapeEpoch {
			return degraded
		}
		return env
	}
	cfg := core.SimConfig{
		Trace: tr, Env: env, Epochs: epochs, EnvAt: envAt, Adaptive: true,
		Drift: profiler.DriftConfig{Alpha: 1, RelThreshold: 0.2, Hysteresis: 1},
	}
	adaptive, err := core.RunAdaptiveSim(cfg)
	if err != nil {
		return nil, err
	}
	staticCfg := cfg
	staticCfg.Adaptive = false
	static, err := core.RunAdaptiveSim(staticCfg)
	if err != nil {
		return nil, err
	}
	oracleDecision, err := core.New().Decide(tr, degraded)
	if err != nil {
		return nil, err
	}
	oracle, err := engine.Run(engine.Config{Trace: tr, Plan: oracleDecision.Plan, Env: degraded})
	if err != nil {
		return nil, err
	}

	// Post-replan tail: every epoch after the boundary the replan landed on.
	tailFrom := adaptive.History[len(adaptive.History)-1].Epoch
	var aSum, sSum, n float64
	for i := range adaptive.Epochs {
		if adaptive.Epochs[i].Epoch < tailFrom {
			continue
		}
		aSum += adaptive.Epochs[i].EpochTime.Seconds()
		sSum += static.Epochs[i].EpochTime.Seconds()
		n++
	}
	return adaptiveReport{
		Kind: "BENCH",
		PR:   5,
		Description: "Adaptive control plane: link reshaped 500→250 Mbps after epoch 2; " +
			"the controller replans at the next boundary and converges on the oracle plan. " +
			"Regenerate with `sophon-bench -adaptive <file>`.",
		GoVersion:          runtime.Version(),
		Samples:            tr.N(),
		BaseMbps:           500,
		ReshapeMbps:        250,
		ReshapeEpoch:       reshapeEpoch,
		Adaptive:           adaptive.Epochs,
		Static:             static.Epochs,
		History:            adaptive.History,
		OracleEpochSeconds: oracle.EpochTime.Seconds(),
		AdaptiveVsOracle:   aSum / (n * oracle.EpochTime.Seconds()),
		StaticVsAdaptive:   sSum / aSum,
	}, nil
}
