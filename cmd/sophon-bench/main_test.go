package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRun covers the command's exit codes: usage errors exit 2, gate
// regressions and ungateable records exit 1, a clean gate exits 0.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	const (
		alloc = "../../BENCH_alloc.json"
		slo   = "../../BENCH_pr7.json"
	)
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"unknown_flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"gate_prev_without_cur", []string{"-gate.prev", alloc}, 2, "must be set together"},
		{"two_scenarios", []string{"-prefetch", a, "-adaptive", b}, 2, "-adaptive and -prefetch"},
		{"scenario_and_gate", []string{"-prefetch", a, "-gate.prev", alloc, "-gate.cur", alloc}, 2, "-prefetch and -gate.prev"},
		{"scenario_and_convert", []string{"-load", a, "-convert", alloc}, 2, "-load and -convert"},
		{"scenario_and_chaos", []string{"-fleet", a, "-chaos.seed", "7"}, 2, "-fleet and -chaos.seed"},
		{"alloc_gate_against_itself", []string{"-gate.prev", alloc, "-gate.cur", alloc}, 0, "gate PASS"},
		{"slo_gate_against_itself", []string{"-gate.prev", slo, "-gate.cur", slo}, 0, "gate PASS"},
		{"alloc_against_slo", []string{"-gate.prev", alloc, "-gate.cur", slo}, 1, "different record kinds"},
		{"scenario_record_gated_pr5", []string{"-gate.prev", alloc, "-gate.cur", "../../BENCH_pr5.json"}, 1, "BENCH_pr5.json"},
		{"scenario_record_gated_pr8", []string{"-gate.prev", "../../BENCH_pr8.json", "-gate.cur", alloc}, 1, "BENCH_pr8.json"},
		{"scenario_record_gated_pr9", []string{"-gate.prev", slo, "-gate.cur", "../../BENCH_pr9.json"}, 1, "BENCH_pr9.json"},
		{"garbage_record", []string{"-gate.prev", garbage, "-gate.cur", alloc}, 1, "garbage.json"},
		{"missing_record", []string{"-gate.prev", alloc, "-gate.cur", filepath.Join(dir, "none.json")}, 1, "none.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := run(tc.args, io.Discard, &stderr); got != tc.want {
				t.Errorf("run(%q) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not mention %q:\n%s", tc.stderr, stderr.String())
			}
			for _, f := range []string{a, b} {
				if _, err := os.Stat(f); err == nil {
					t.Errorf("%s written by a run that should not have produced a record", f)
				}
			}
		})
	}
}

// TestScenariosReproduceCommittedRecords runs every scenario that has a
// committed record at the default seed and requires the written file to
// match it byte for byte. go_version is provenance (the toolchain that
// wrote the committed file), not output, so it is taken from the committed
// record. The alloc suite is left out: its timings are machine noise.
func TestScenariosReproduceCommittedRecords(t *testing.T) {
	committed := map[string]string{
		"adaptive":  "BENCH_pr5.json",
		"fleet":     "BENCH_pr6.json",
		"load":      "BENCH_pr7.json",
		"prefetch":  "BENCH_pr8.json",
		"prepsched": "BENCH_pr9.json",
		"fidelity":  "BENCH_pr10.json",
	}
	goVersion := regexp.MustCompile(`"go_version": "[^"]*"`)
	ran := 0
	for _, s := range scenarios {
		file, ok := committed[s.name]
		if !ok {
			continue
		}
		ran++
		t.Run(s.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", file))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := s.run(2024, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), file)
			if err := writeRecord(path, rec); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got = goVersion.ReplaceAllLiteral(got, goVersion.Find(want))
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s differs from %s at line %d:\n got %s\nwant %s", s.name, file, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s differs from %s in length: %d vs %d lines", s.name, file, len(gl), len(wl))
		})
	}
	if ran != len(committed) {
		t.Fatalf("ran %d scenarios, want %d: a committed record lost its scenario", ran, len(committed))
	}
}
