// Command sophon-bench regenerates the paper's evaluation tables and the
// repository's committed perf records.
//
// Usage:
//
//	sophon-bench [-seed N] [-o report.txt] [-csv dir]
//	sophon-bench [-seed N] -NAME record.json
//	sophon-bench -gate.prev baseline.json -gate.cur current.json
//	sophon-bench -convert a.json,b.json [-convert.o TRAJECTORY.json]
//	sophon-bench -chaos.seed N [-chaos.class C] [-chaos.duration D]
//
// With no mode flag the command runs the evaluation at paper scale (40 000
// OpenImages samples, 91 000 ImageNet samples) and writes the report to
// stdout or -o; it still completes in a few seconds because the evaluation
// replays profiled traces through the discrete-event engine.
//
// Every record comes from one entry of the scenarios table, which registers
// a -NAME FILE flag: the scenario runs at -seed and its record is written to
// FILE. The committed records regenerate with
//
//	-json      data-plane micro-benchmark suite, one result per kernel (BENCH_alloc.json)
//	-adaptive  link reshaped 500→250 Mbps mid-run, adaptive vs static vs oracle (BENCH_pr5.json)
//	-fleet     100 jobs on one tier, coordinated vs independent planning (BENCH_pr6.json)
//	-load      open-loop serving harness, steady and 2.6x overload SLOs (BENCH_pr7.json)
//	-prefetch  clairvoyant per-shard lookahead vs reactive window (BENCH_pr8.json)
//	-prepsched work-stealing vs FIFO preprocessing dispatch (BENCH_pr9.json)
//	-fidelity  progressive fidelity vs the discrete plan (BENCH_pr10.json)
//
// -gate.prev/-gate.cur diff two records of the same kind and exit 1 on any
// regression (the CI perf-trajectory gate): SLO records gate p99/p999 and
// throughput past perfbench.DefaultNoise; alloc-suite BENCH records gate
// allocs/op exactly. -convert folds any records into one TRAJECTORY file.
//
// -chaos.seed runs the deterministic chaos soak: a trainer over a
// fault-injected sharded storage tier, checked against a fault-free
// reference for bit-identical artifacts and exact failure accounting. One
// JSON report per soak is written to stdout; -chaos.duration keeps soaking
// with deterministically derived seeds until the budget runs out, and
// -chaos.class picks the fault mix. A failing soak's report carries the
// seed and plan digest needed to replay it exactly.
//
// A scenario, the gate, -convert and -chaos.seed are separate modes; setting
// two is a usage error (exit 2).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/eval"
	"repro/internal/perfbench"
	"repro/internal/soak"
)

// scenario is one record sophon-bench regenerates. run returns the record
// (marshalled by writeRecord) and may print a one-line summary to log.
type scenario struct {
	name  string
	usage string
	run   func(seed uint64, log io.Writer) (any, error)
}

var scenarios = []scenario{
	{"json", "run the data-plane micro-benchmark suite", func(uint64, io.Writer) (any, error) {
		return perfbench.NewBenchRecord()
	}},
	{"adaptive", "run the adaptive control-plane scenario (500→250 Mbps reshape)", runAdaptive},
	{"fleet", "run the 100-job fleet scenario (coordinated vs independent planning on a shared tier)", runFleet},
	{"prefetch", "run the clairvoyant-vs-reactive prefetch comparison", runPrefetch},
	{"prepsched", "run the work-stealing-vs-FIFO preprocessing scheduler comparison", runPrepsched},
	{"fidelity", "run the progressive-fidelity evaluation (discrete vs fidelity-aware plan, ladder calibrated from the live codec)", runFidelity},
	{"load", "run the heavy-traffic load harness (steady + overload scenarios)", runLoad},
}

// writeRecord writes v as indented JSON plus a trailing newline: the format
// of every committed record.
func writeRecord(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChaos soaks until the duration budget is spent (always at least once),
// printing one JSON report per run to stdout. Returns false if any soak
// failed.
func runChaos(seed uint64, class string, duration time.Duration, stdout, stderr io.Writer) bool {
	cl, err := soak.ParseClass(class)
	if err != nil {
		fmt.Fprintf(stderr, "sophon-bench: %v\n", err)
		return false
	}
	enc := json.NewEncoder(stdout)
	deadline := time.Now().Add(duration)
	ok := true
	for i := 0; ; i++ {
		rep, err := soak.Run(soak.Config{Seed: seed, Class: cl})
		if err != nil {
			fmt.Fprintf(stderr, "sophon-bench: soak seed=%d: %v\n", seed, err)
			return false
		}
		enc.Encode(rep)
		if !rep.Ok() {
			fmt.Fprintf(stderr, "sophon-bench: soak seed=%d digest=%08x FAILED: %d mismatches, %d failed (want %d)\n",
				seed, rep.Digest, rep.Mismatches, rep.Failed, rep.WantFailed)
			ok = false
		}
		if !time.Now().Before(deadline) {
			return ok
		}
		seed = seed*0x9E3779B97F4A7C15 + 1 // same derivation as the soak test suite
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the one selected mode and
// returns the exit code (0 ok, 1 failure or gate regression, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sophon-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 2024, "random seed for the evaluation and every record scenario")
	out := fs.String("o", "", "write the evaluation report to this file instead of stdout")
	csvDir := fs.String("csv", "", "also write one CSV per evaluation table into this directory")
	chaosSeed := fs.Uint64("chaos.seed", 0, "run the deterministic chaos soak with this fault seed instead of the evaluation")
	chaosClass := fs.String("chaos.class", "mixed", "chaos soak fault class: none|delays|corrupt|mixed|partition")
	chaosDuration := fs.Duration("chaos.duration", 0, "keep soaking with derived seeds until this much time has passed")
	gatePrev := fs.String("gate.prev", "", "perf-trajectory gate: committed baseline record (SLO or alloc-suite BENCH)")
	gateCur := fs.String("gate.cur", "", "perf-trajectory gate: freshly generated record of the same kind to check")
	convertIn := fs.String("convert", "", "comma-separated record files to fold into one TRAJECTORY file")
	convertOut := fs.String("convert.o", "TRAJECTORY.json", "output path for -convert")
	paths := make([]*string, len(scenarios))
	for i, s := range scenarios {
		paths[i] = fs.String(s.name, "", s.usage+" and write its record to this file (skips the evaluation)")
	}
	version := cliutil.Setup(fs, "sophon-bench", "Regenerates the paper's evaluation tables and the committed perf records.")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.VersionLine("sophon-bench"))
		return 0
	}

	var modes []string
	for i, s := range scenarios {
		if *paths[i] != "" {
			modes = append(modes, s.name)
		}
	}
	if *gatePrev != "" {
		modes = append(modes, "gate.prev")
	} else if *gateCur != "" {
		modes = append(modes, "gate.cur")
	}
	if *convertIn != "" {
		modes = append(modes, "convert")
	}
	if *chaosSeed != 0 {
		modes = append(modes, "chaos.seed")
	}
	if len(modes) > 1 {
		fmt.Fprintf(stderr, "sophon-bench: -%s and -%s select different modes; set one\n", modes[0], modes[1])
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "sophon-bench: %v\n", err)
		return 1
	}

	for i, s := range scenarios {
		if *paths[i] == "" {
			continue
		}
		rec, err := s.run(*seed, stderr)
		if err != nil {
			return fail(err)
		}
		if err := writeRecord(*paths[i], rec); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "sophon-bench: %s record written to %s\n", s.name, *paths[i])
		return 0
	}

	switch {
	case *gatePrev != "" || *gateCur != "":
		if *gatePrev == "" || *gateCur == "" {
			fmt.Fprintln(stderr, "sophon-bench: -gate.prev and -gate.cur must be set together")
			return 2
		}
		regs, err := gate(*gatePrev, *gateCur)
		if err != nil {
			return fail(err)
		}
		for _, r := range regs {
			fmt.Fprintf(stderr, "sophon-bench: gate FAIL: %s\n", r)
		}
		if len(regs) > 0 {
			return 1
		}
		fmt.Fprintf(stderr, "sophon-bench: gate PASS (%s vs %s)\n", *gateCur, *gatePrev)
		return 0

	case *convertIn != "":
		if err := writeConvertJSON(*convertIn, *convertOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "sophon-bench: trajectory written to %s\n", *convertOut)
		return 0

	case *chaosSeed != 0:
		if !runChaos(*chaosSeed, *chaosClass, *chaosDuration, stdout, stderr) {
			return 1
		}
		return 0
	}

	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			return fail(err)
		}
		defer f.Close() // error paths; the success path checks Close below
		w = f
	}
	opts := eval.Options{Seed: *seed}
	if err := eval.RunAll(opts, w); err != nil {
		return fail(err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if *csvDir != "" {
		if err := eval.WriteCSVDir(opts, *csvDir); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "sophon-bench: CSVs written to %s\n", *csvDir)
	}
	return 0
}
