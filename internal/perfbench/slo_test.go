package perfbench

import (
	"os"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func sampleRecord() SLORecord {
	return SLORecord{
		Kind:      "SLO",
		Version:   SLORecordVersion,
		GoVersion: "go1.24.0",
		Seed:      2024,
		Scenarios: []SLOScenario{{
			Name:          "steady",
			Sessions:      2400,
			Offered:       10000,
			Completed:     9990,
			OfferedRPS:    5000,
			ThroughputRPS: 4995,
			Classes: map[string]SLOClass{
				"hit":       {Count: 4000, P50Ms: 0.03, P99Ms: 0.05, P999Ms: 0.06},
				"offloaded": {Count: 4000, P50Ms: 1.2, P99Ms: 6.5, P999Ms: 9.8},
				"raw":       {Count: 2000, P50Ms: 2.4, P99Ms: 11.0, P999Ms: 16.0},
			},
		}},
	}
}

func TestCompareSLOPasses(t *testing.T) {
	prev := sampleRecord()
	cur := sampleRecord()
	// Jitter within the 10% noise band must pass.
	s := cur.Scenarios[0]
	s.ThroughputRPS *= 0.95
	c := s.Classes["raw"]
	c.P99Ms *= 1.08
	s.Classes["raw"] = c
	cur.Scenarios[0] = s
	if regs := CompareSLO(prev, cur); len(regs) != 0 {
		t.Fatalf("within-noise diff failed the gate: %v", regs)
	}
}

// TestCompareSLOCatchesInjectedP99Regression is the acceptance check: a 20%
// p99 regression on one class must fail the gate at the default threshold.
func TestCompareSLOCatchesInjectedP99Regression(t *testing.T) {
	prev := sampleRecord()
	cur := sampleRecord()
	s := cur.Scenarios[0]
	c := s.Classes["offloaded"]
	c.P99Ms *= 1.20
	s.Classes["offloaded"] = c
	cur.Scenarios[0] = s
	regs := CompareSLO(prev, cur)
	if len(regs) != 1 {
		t.Fatalf("want exactly the injected p99 regression, got %v", regs)
	}
	t.Logf("gate caught: %s", regs[0])
}

func TestCompareSLOCatchesThroughputDrop(t *testing.T) {
	prev := sampleRecord()
	cur := sampleRecord()
	cur.Scenarios[0].ThroughputRPS *= 0.80
	if regs := CompareSLO(prev, cur); len(regs) != 1 {
		t.Fatalf("want the throughput regression, got %v", regs)
	}
}

func TestCompareSLOStructuralRegressions(t *testing.T) {
	prev := sampleRecord()

	cur := sampleRecord()
	cur.Scenarios = nil
	if regs := CompareSLO(prev, cur); len(regs) != 1 {
		t.Fatalf("missing scenario: got %v", regs)
	}

	cur = sampleRecord()
	delete(cur.Scenarios[0].Classes, "hit")
	if regs := CompareSLO(prev, cur); len(regs) != 1 {
		t.Fatalf("missing class: got %v", regs)
	}

	cur = sampleRecord()
	cur.Version = SLORecordVersion + 1
	if regs := CompareSLO(prev, cur); len(regs) != 1 {
		t.Fatalf("version skew: got %v", regs)
	}

	// Extra scenarios and classes in cur are new baselines, not failures.
	cur = sampleRecord()
	cur.Scenarios = append(cur.Scenarios, SLOScenario{Name: "overload"})
	if regs := CompareSLO(prev, cur); len(regs) != 0 {
		t.Fatalf("new scenario failed the gate: %v", regs)
	}
}

func TestScenarioFromReport(t *testing.T) {
	rep := &loadgen.Report{
		Sessions:      100,
		Offered:       1000,
		Completed:     990,
		Shed:          10,
		ThroughputRPS: 495,
		ShedRate:      0.01,
		Classes: map[string]*loadgen.ClassReport{
			"hit": {Count: 990, P50: 30 * time.Microsecond, P99: 50 * time.Microsecond},
		},
	}
	s := ScenarioFromReport("steady", rep)
	if s.Name != "steady" || s.Sessions != 100 || s.Completed != 990 {
		t.Fatalf("identity fields wrong: %+v", s)
	}
	c, ok := s.Classes["hit"]
	if !ok {
		t.Fatal("hit class missing")
	}
	if c.P50Ms != 0.03 || c.P99Ms != 0.05 {
		t.Fatalf("ns→ms conversion wrong: %+v", c)
	}
}

// TestConvertBenchRecords converts the real committed BENCH records — every
// historical shape must keep converting.
func TestConvertBenchRecords(t *testing.T) {
	cases := []struct {
		file    string
		pr      int
		wantKey string
	}{
		{"../../BENCH_pr3.json", 3, "pipeline/BenchmarkFullPipeline640x480/after/ns_per_op"},
		{"../../BENCH_pr5.json", 5, "adaptive_vs_oracle"},
		{"../../BENCH_pr6.json", 6, "coordinated_speedup"},
		{"../../BENCH_pr7.json", 0, "overload/classes/raw/p99_ms"},
		{"../../BENCH_pr8.json", 8, "prefetch_speedup"},
		{"../../BENCH_pr9.json", 9, "prepsched_speedup"},
		{"../../BENCH_pr10.json", 10, "traffic_reduction"},
		{"../../BENCH_alloc.json", 0, "imaging/Decode640x480/ns_per_op"},
	}
	for _, tc := range cases {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		e, err := ConvertBenchRecord(tc.file, data)
		if err != nil {
			t.Fatal(err)
		}
		if e.PR != tc.pr {
			t.Errorf("%s: pr = %d, want %d", tc.file, e.PR, tc.pr)
		}
		v, ok := e.Metrics[tc.wantKey]
		if !ok || v <= 0 {
			t.Errorf("%s: metric %q = %v (present %v)", tc.file, tc.wantKey, v, ok)
		}
	}

	if _, err := ConvertBenchRecord("bogus", []byte(`{"kind":"???"}`)); err == nil {
		t.Error("unrecognized shape converted without error")
	}
}

// TestCompareBench: the alloc-suite gate catches alloc regressions and
// vanished kernels and ignores timing entirely.
func TestCompareBench(t *testing.T) {
	base := BenchRecord{Kind: "BENCH", Results: []Result{
		{Name: "imaging/Decode", NsPerOp: 100, AllocsPerOp: 43},
		{Name: "wire/Write", NsPerOp: 50, AllocsPerOp: 0},
	}}
	if regs := CompareBench(base, base); len(regs) != 0 {
		t.Fatalf("identical records failed the gate: %v", regs)
	}

	slower := BenchRecord{Kind: "BENCH", Results: []Result{
		{Name: "imaging/Decode", NsPerOp: 100000, AllocsPerOp: 43},
		{Name: "wire/Write", NsPerOp: 50000, AllocsPerOp: 0},
	}}
	if regs := CompareBench(base, slower); len(regs) != 0 {
		t.Fatalf("timing-only drift failed the alloc gate: %v", regs)
	}

	leaky := BenchRecord{Kind: "BENCH", Results: []Result{
		{Name: "imaging/Decode", NsPerOp: 100, AllocsPerOp: 45},
		{Name: "wire/Write", NsPerOp: 50, AllocsPerOp: 0},
	}}
	if regs := CompareBench(base, leaky); len(regs) != 1 {
		t.Fatalf("2 extra allocs/op not caught: %v", regs)
	}
	// No slack: a single extra allocation on one kernel fails the gate.
	leaky.Results[0].AllocsPerOp = 44
	if regs := CompareBench(base, leaky); len(regs) != 1 {
		t.Fatalf("1 extra alloc/op not caught: %v", regs)
	}

	gone := BenchRecord{Kind: "BENCH", Results: base.Results[:1]}
	if regs := CompareBench(base, gone); len(regs) != 1 {
		t.Fatalf("vanished kernel not caught: %v", regs)
	}

	grown := BenchRecord{Kind: "BENCH", Results: append([]Result{
		{Name: "new/Kernel", NsPerOp: 10, AllocsPerOp: 99},
	}, base.Results...)}
	if regs := CompareBench(base, grown); len(regs) != 0 {
		t.Fatalf("new kernel failed the gate: %v", regs)
	}
}
