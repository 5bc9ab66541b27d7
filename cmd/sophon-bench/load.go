package main

// The -load scenario and the two record tools. -load runs the open-loop load
// generator against the simulated sharded tier and returns a versioned SLO
// record (BENCH_pr7.json); gate diffs a fresh record against the committed
// baseline (the CI perf-trajectory gate); writeConvertJSON folds records into
// one TRAJECTORY file.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/perfbench"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// The simulated tier and workload: 2400 sessions over 4 shards of 8
// offload cores, the paper's 500 Mbps storage link split evenly across the
// shards, and a 5 s simulated window per scenario.
const (
	loadSessions = 2400
	loadDuration = 5 * time.Second
	loadShards   = 4
	loadCores    = 8
	loadMbps     = 500
)

// buildLoadJobs derives the mixed job profiles from fleet tenant specs: two
// tenants (an OpenImages-profile job and an ImageNet-profile job) admitted
// to one coordinator sharing the tier's cores and link, their grants turned
// into loadgen specs. Roughly 2/3 of the sessions go to the heavier tenant.
// Arrival rates are scaled so the offered link traffic is util × the tier's
// capacity — util < 1 is a steady workload, util > 1 open-loop overload.
func buildLoadJobs(seed uint64, util float64) ([]loadgen.JobSpec, error) {
	trA, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(1200), seed)
	if err != nil {
		return nil, err
	}
	trB, err := dataset.GenerateTrace(dataset.ImageNet11G().ScaledTo(800), seed+1)
	if err != nil {
		return nil, err
	}
	coord, err := sched.NewCoordinator(sched.FleetConfig{
		Cores:     loadShards * loadCores,
		Bandwidth: netsim.Mbps(loadMbps),
		Shards:    loadShards,
		Clock:     simclock.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		return nil, err
	}
	env := policy.Env{
		ComputeCores:    16,
		Bandwidth:       netsim.Mbps(loadMbps),
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	tenants := []sched.Tenant{
		{Name: "openimages", Weight: 2, Trace: trA, Env: env},
		{Name: "imagenet", Weight: 1, Trace: trB, Env: env},
	}
	var jobs []loadgen.JobSpec
	for i, t := range tenants {
		if _, err := coord.Admit(t); err != nil {
			return nil, fmt.Errorf("admit %s: %w", t.Name, err)
		}
		grant := coord.Grants()[t.Name]
		sessions := loadSessions * 2 / 3
		hitRate := 0.4
		if i == 1 {
			sessions = loadSessions - sessions
			hitRate = 0.3
		}
		// Provisional per-session rates (scaled to the link below): the
		// heavier tenant's sessions also arrive faster.
		spec := loadgen.SpecFromTenant(t, grant, sessions, 1.5, hitRate)
		if i == 1 {
			// The lighter tenant arrives in bursts — mixed arrival processes
			// stress the admission queue harder than two smooth streams.
			spec.Arrival = loadgen.Bursty
			spec.Burst = 8
			spec.Rate = 1
		}
		jobs = append(jobs, spec)
	}
	// Scale every rate so offered traffic = util × tier bandwidth.
	var offered float64
	for _, j := range jobs {
		perReq := j.Mix[1]*float64(j.OffloadedBytes) + j.Mix[2]*float64(j.RawBytes)
		offered += float64(j.Sessions) * j.Rate * perReq
	}
	if offered <= 0 {
		return nil, fmt.Errorf("load workload offers no link traffic")
	}
	scale := util * netsim.Mbps(loadMbps) / offered
	for i := range jobs {
		jobs[i].Rate *= scale
	}
	return jobs, nil
}

// runLoadScenario runs one named workload through the DES harness.
func runLoadScenario(name string, seed uint64, util float64, adm loadgen.AdmissionSpec) (perfbench.SLOScenario, *loadgen.Report, error) {
	jobs, err := buildLoadJobs(seed, util)
	if err != nil {
		return perfbench.SLOScenario{}, nil, err
	}
	rep, err := loadgen.Run(loadgen.Config{
		Seed:            seed,
		Duration:        loadDuration,
		Jobs:            jobs,
		Shards:          loadShards,
		CoresPerShard:   loadCores,
		LinkBytesPerSec: netsim.Mbps(loadMbps) / loadShards,
		Admission:       adm,
	})
	if err != nil {
		return perfbench.SLOScenario{}, nil, err
	}
	return perfbench.ScenarioFromReport(name, rep), rep, nil
}

// runLoad runs the steady and overload scenarios and returns the SLO
// record. Steady offers ~65% of tier capacity; overload offers 2.6x
// capacity against a tight admission budget, so the record shows both
// nominal SLOs and shed-load behavior.
func runLoad(seed uint64, log io.Writer) (any, error) {
	steady, steadyRep, err := runLoadScenario("steady", seed, 0.65, loadgen.AdmissionSpec{})
	if err != nil {
		return nil, err
	}
	overload, overloadRep, err := runLoadScenario("overload", seed, 2.6, loadgen.AdmissionSpec{
		MaxInFlightBytes:  2 << 20,
		MaxQueuePerTenant: 16,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range []struct {
		name string
		rep  *loadgen.Report
	}{{"steady", steadyRep}, {"overload", overloadRep}} {
		fmt.Fprintf(log, "sophon-bench: %-8s %d sessions, %.0f rps offered, %.0f rps served, %.2f%% shed",
			s.name, s.rep.Sessions, s.rep.OfferedRPS, s.rep.ThroughputRPS, 100*s.rep.ShedRate)
		if c := s.rep.Classes["raw"]; c != nil {
			fmt.Fprintf(log, ", raw p99 %.2f ms", float64(c.P99.Nanoseconds())/1e6)
		}
		fmt.Fprintln(log)
	}
	return perfbench.SLORecord{
		Kind:      "SLO",
		Version:   perfbench.SLORecordVersion,
		GoVersion: runtime.Version(),
		Seed:      seed,
		Scenarios: []perfbench.SLOScenario{steady, overload},
	}, nil
}

// gate diffs two records of the same kind and returns every regression:
// SLO records go to CompareSLO, alloc-suite BENCH records to CompareBench.
// Any other record, or two records of different kinds, is an error that
// names the file.
func gate(prevPath, curPath string) ([]string, error) {
	prev, err := readGateRecord(prevPath)
	if err != nil {
		return nil, err
	}
	cur, err := readGateRecord(curPath)
	if err != nil {
		return nil, err
	}
	switch p := prev.(type) {
	case *perfbench.SLORecord:
		if c, ok := cur.(*perfbench.SLORecord); ok {
			return perfbench.CompareSLO(*p, *c), nil
		}
	case *perfbench.BenchRecord:
		if c, ok := cur.(*perfbench.BenchRecord); ok {
			return perfbench.CompareBench(*p, *c), nil
		}
	}
	return nil, fmt.Errorf("%s and %s are different record kinds; gate like against like", prevPath, curPath)
}

// readGateRecord decodes a record's kind and then the record itself, as a
// *perfbench.SLORecord or a *perfbench.BenchRecord.
func readGateRecord(path string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Kind    string            `json:"kind"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var rec any
	switch {
	case head.Kind == "SLO":
		rec = &perfbench.SLORecord{}
	case head.Kind == "BENCH" && len(head.Results) > 0:
		rec = &perfbench.BenchRecord{}
	default:
		return nil, fmt.Errorf("%s: a %q record without alloc-suite results cannot be gated; want an SLO record or a `sophon-bench -json` BENCH record", path, head.Kind)
	}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// writeConvertJSON folds the comma-separated record files into one
// TRAJECTORY file, in the order given.
func writeConvertJSON(files, outPath string) error {
	traj := perfbench.Trajectory{Kind: "TRAJECTORY", Version: 1}
	for _, f := range strings.Split(files, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		e, err := perfbench.ConvertBenchRecord(f, data)
		if err != nil {
			return err
		}
		traj.Entries = append(traj.Entries, e)
	}
	if len(traj.Entries) == 0 {
		return fmt.Errorf("no records in -convert %q", files)
	}
	return writeRecord(outPath, traj)
}
