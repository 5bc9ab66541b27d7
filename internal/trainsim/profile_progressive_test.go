package trainsim

import (
	"testing"

	"repro/internal/imaging"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/storage"
)

// blobHarness serves the given stored objects over a pipe listener.
func blobHarness(t testing.TB, blobs [][]byte) *harness {
	t.Helper()
	store, err := storage.NewStore("blobs", blobs)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: 32, FlipP: -1})
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return &harness{listener: l, server: srv, pipe: p, n: len(blobs)}
}

// A profiling epoch over a store of progressive containers must finish and
// record the same per-sample dimensions as one over the SJPG encodings of
// the same images.
func TestProfilingEpochProgressiveStore(t *testing.T) {
	const n = 10
	sjpg := make([][]byte, n)
	sjpr := make([][]byte, n)
	for i := range sjpg {
		im, err := imaging.Synthesize(imaging.SynthParams{
			W: 40 + 6*(i%7), H: 36 + 5*(i%4), Detail: 0.5, Seed: uint64(i + 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		if sjpg[i], err = imaging.Encode(im, 80); err != nil {
			t.Fatal(err)
		}
		if sjpr[i], err = imaging.EncodeProgressive(im, 80, imaging.MaxScans); err != nil {
			t.Fatal(err)
		}
	}
	profile := func(blobs [][]byte) [][2]int {
		tr := newTrainer(t, blobHarness(t, blobs))
		collector, err := profiler.NewCollector(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.RunEpoch(1, nil, collector); err != nil {
			t.Fatalf("profiling epoch: %v", err)
		}
		trace, err := collector.Trace("dims")
		if err != nil {
			t.Fatal(err)
		}
		dims := make([][2]int, n)
		for _, r := range trace.Records {
			dims[r.ID] = [2]int{r.Width, r.Height}
		}
		return dims
	}
	want, got := profile(sjpg), profile(sjpr)
	for i := range want {
		if got[i] != want[i] || want[i] == ([2]int{}) {
			t.Errorf("sample %d: progressive store recorded %v, SJPG store %v", i, got[i], want[i])
		}
	}
}
