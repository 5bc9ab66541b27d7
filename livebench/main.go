// Command livebench times SOPHON's live path end to end: storage server(s),
// admission, near-storage executor, wire, shaped link, client session, local
// preprocessing and the simulated GPU step, all in one process. Each workload
// starts its tier, profiles epoch 1 without offloading, plans from that
// measured trace, warms up, and then times whole epochs under the plan.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash livebench/run.sh --workload offload_io --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether every check
// passed, the samples attempted and failed over all epochs, and the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1). A human-readable report goes to standard error.
// README.md in this directory records why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "minimum summed wall time of the timed epochs")
	trace := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	generate := flag.Bool("generate", false, "only generate the workload's inputs for --seed (the benchmark runs itself this way when they are missing)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	if *generate {
		if err := generateInputs(w.images, *seed); err != nil {
			fail(err)
		}
		return
	}
	if w.spareP {
		runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "livebench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
