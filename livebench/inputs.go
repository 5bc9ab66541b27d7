package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/dataset"
)

// inputDir keeps generated inputs between runs, relative to the checkout
// root run.sh starts the benchmark in.
const inputDir = ".bench_build/inputs"

// loadInputs returns the stored bytes of every sample of workload name's
// synthetic dataset for seed. Rendering and encoding them takes seconds and
// is outside every metric. A missing set is generated into inputDir by a
// child process running this binary with --generate, so the measuring
// process's heap never holds the encoder's scratch and peak_rss_mb does not
// depend on whether the run generated its inputs. A kept set is reused by
// later runs with the same seed while the codec still encodes its first
// sample to the same bytes.
func loadInputs(name string, opts dataset.SyntheticOptions, seed uint64) ([][]byte, error) {
	set, path, err := inputSet(opts, seed)
	if err != nil {
		return nil, err
	}
	first, err := set.Raw(0)
	if err != nil {
		return nil, err
	}
	current := func(objects [][]byte) bool {
		return len(objects) == opts.N && bytes.Equal(objects[0], first)
	}
	if objects, err := readInputs(path); err == nil && current(objects) {
		return objects, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	gen := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--generate")
	gen.Stderr = os.Stderr
	if err := gen.Run(); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	objects, err := readInputs(path)
	if err != nil {
		return nil, err
	}
	if !current(objects) {
		return nil, errors.New("generated inputs do not match the codec")
	}
	return objects, nil
}

// generateInputs renders and encodes the dataset for seed on every CPU and
// writes it to inputDir.
func generateInputs(opts dataset.SyntheticOptions, seed uint64) error {
	set, path, err := inputSet(opts, seed)
	if err != nil {
		return err
	}
	objects := make([][]byte, opts.N)
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(objects) && errs[w] == nil; i += len(errs) {
				objects[i], errs[w] = set.Raw(i)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return writeInputs(path, objects)
}

// inputSet returns the dataset for seed and the file that keeps it.
func inputSet(opts dataset.SyntheticOptions, seed uint64) (*dataset.ImageSet, string, error) {
	opts.Seed = seed
	set, err := dataset.NewSyntheticImageSet(opts)
	path := filepath.Join(inputDir, fmt.Sprintf("n%d-%d-%d-seed%d.gob", opts.N, opts.MinDim, opts.MaxDim, seed))
	return set, path, err
}

func readInputs(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var objects [][]byte
	err = gob.NewDecoder(f).Decode(&objects)
	return objects, err
}

// writeInputs writes objects to path through a temporary file, so an
// interrupted run never leaves a truncated set behind.
func writeInputs(path string, objects [][]byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".inputs-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(objects); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
