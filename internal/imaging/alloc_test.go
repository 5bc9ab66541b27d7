package imaging

import (
	"testing"

	"repro/internal/raceflag"
)

// The codec is the data plane's hottest kernel, so its steady-state
// allocation behavior is pinned. With warm pools, every buffer we control —
// plane scratch, codec state, pixel output — is recycled; what remains is
// compress/flate rebuilding its per-block huffman tables inside Decode
// (~45 tiny allocations, ~2 KB total, unavoidable without reimplementing
// inflate). The budgets below are therefore a small byte ceiling plus an
// alloc-count ceiling just above that flate floor: a regression that
// reintroduces per-call plane or pixel buffers (megabytes per op) trips the
// byte budget immediately.

func TestDecodeSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("race detector degrades sync.Pool caching; budgets not meaningful")
	}
	im, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the flate-reader and plane/pixel pools.
	for i := 0; i < 8; i++ {
		out, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 64<<10 {
		t.Fatalf("Decode allocates %d B/op at steady state, budget is 64 KiB (pre-pooling: ~1.4 MB)", got)
	}
	if got := res.AllocsPerOp(); got > 60 {
		t.Fatalf("Decode makes %d allocs/op at steady state, budget is 60 (flate-internal floor ~45)", got)
	}
}

func TestEncodeSteadyStateAllocs(t *testing.T) {
	im, err := Synthesize(SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := EncodeDefault(im); err != nil {
			t.Fatal(err)
		}
	}
	// Idle encoders wait in a channel that survives GC and P migration, so
	// the only allocation left is the returned stream, every time.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeDefault(im); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Encode allocates %.1f allocs/op at steady state, want exactly 1 (the returned stream)", allocs)
	}
}
