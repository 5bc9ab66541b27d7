package perfbench

// The alloc-suite gate: BENCH records from `sophon-bench -json` (one Result
// per data-plane kernel) are diffed against a committed baseline the same way
// SLO records are. Unlike latency, allocation counts are deterministic — the
// same code allocates the same number of times per op on any machine — so the
// gate holds allocs/op to the baseline exactly and deliberately ignores
// ns/op, which is pure machine noise on shared CI.

import (
	"fmt"
	"runtime"
)

// BenchRecord is the versioned output of `sophon-bench -json`: the
// data-plane micro-benchmark suite frozen into one record. CI commits the
// previous record (BENCH_alloc.json) and diffs each new run with
// CompareBench.
type BenchRecord struct {
	Kind      string   `json:"kind"` // always "BENCH"
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// NewBenchRecord runs the suite and stamps the record.
func NewBenchRecord() (BenchRecord, error) {
	results, err := Run()
	if err != nil {
		return BenchRecord{}, err
	}
	return BenchRecord{
		Kind:      "BENCH",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   results,
	}, nil
}

// CompareBench diffs cur against prev and returns one message per
// allocation regression: a kernel gone from the suite, or allocs/op above
// the baseline (there is no slack: counts are deterministic). New kernels in
// cur never fail — they become the baseline for the next run. ns/op and B/op
// are reported nowhere here on purpose: timing is machine noise, and alloc
// *bytes* scale with payload constants the suite may legitimately retune,
// while alloc *counts* regressing means a hot path gained a heap escape.
func CompareBench(prev, cur BenchRecord) []string {
	var regs []string
	curByName := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	for _, p := range prev.Results {
		c, ok := curByName[p.Name]
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: kernel disappeared from the suite", p.Name))
			continue
		}
		if c.AllocsPerOp > p.AllocsPerOp {
			regs = append(regs, fmt.Sprintf("%s: allocs/op %d → %d", p.Name, p.AllocsPerOp, c.AllocsPerOp))
		}
	}
	return regs
}
