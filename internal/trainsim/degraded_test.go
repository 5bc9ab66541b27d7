package trainsim

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
)

// failingClient wraps a real session but fails every sample a predicate
// selects — a dead shard seen through a degraded fan-out client, without a
// cluster in the loop. With wholeBatch set, a round trip that touches a
// selected sample fails as a whole instead, the way a transport error loses
// every item of the request. lost records each sample of a failed round
// trip or failed item, once per failure.
type failingClient struct {
	StorageClient
	fails      func(sample uint32) bool
	wholeBatch bool
	mu         sync.Mutex
	lost       []uint32
}

var errInjected = errors.New("injected shard failure")

func (f *failingClient) lose(samples ...uint32) {
	f.mu.Lock()
	f.lost = append(f.lost, samples...)
	f.mu.Unlock()
}

func (f *failingClient) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	if f.fails(sample) {
		f.lose(sample)
		res := storage.FetchResult{Sample: sample, Split: split, Err: errInjected}
		return res, errInjected
	}
	return f.StorageClient.Fetch(ctx, sample, split, epoch)
}

func (f *failingClient) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	if f.wholeBatch && slices.ContainsFunc(samples, f.fails) {
		f.lose(samples...)
		return nil, errInjected
	}
	out := make([]storage.FetchResult, len(samples))
	healthyIdx := make([]int, 0, len(samples))
	healthySamples := make([]uint32, 0, len(samples))
	healthySplits := make([]int, 0, len(samples))
	for i, s := range samples {
		if f.fails(s) {
			f.lose(s)
			out[i] = storage.FetchResult{Sample: s, Split: splits[i], Err: errInjected}
			continue
		}
		healthyIdx = append(healthyIdx, i)
		healthySamples = append(healthySamples, s)
		healthySplits = append(healthySplits, splits[i])
	}
	if len(healthySamples) > 0 {
		res, err := f.StorageClient.FetchBatch(ctx, healthySamples, healthySplits, epoch)
		if err != nil {
			return nil, err
		}
		for j, i := range healthyIdx {
			out[i] = res[j]
		}
	}
	return out, nil
}

// TestDegradedModeSkipsFailedSamples: per-item failures and round trips
// that fail as a whole become skipped samples counted in
// EpochReport.Failed, each exactly once, not an aborted epoch.
func TestDegradedModeSkipsFailedSamples(t *testing.T) {
	const n = 40
	h := newHarness(t, n, 0)
	everyFifth := func(s uint32) bool { return s%5 == 0 }
	for _, tc := range []struct {
		name       string
		batch      int
		wholeBatch bool
		fails      func(uint32) bool
	}{
		{"per-sample", 0, false, everyFifth},
		{"per-item in batch", 8, false, everyFifth},
		{"whole batch", 8, true, func(s uint32) bool { return s == 3 || s == 30 }},
	} {
		var fc *failingClient
		cfg := h.config()
		inner := cfg.DialClient
		cfg.DialClient = func() (StorageClient, error) {
			c, err := inner()
			if err != nil {
				return nil, err
			}
			fc = &failingClient{StorageClient: c, fails: tc.fails, wholeBatch: tc.wholeBatch}
			return fc, nil
		}
		cfg.DegradedMode = true
		cfg.FetchBatchSize = tc.batch
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tr.RunEpoch(1, nil, nil)
		tr.Close()
		if err != nil {
			t.Fatalf("%s: degraded epoch: %v", tc.name, err)
		}
		// Every selected sample is lost, and no sample is lost twice: the
		// degraded epoch must not retry what the session already gave up on.
		lost := map[uint32]bool{}
		for _, s := range fc.lost {
			if lost[s] {
				t.Errorf("%s: sample %d fetched and lost twice", tc.name, s)
			}
			lost[s] = true
		}
		for s := uint32(0); s < n; s++ {
			if tc.fails(s) && !lost[s] {
				t.Errorf("%s: selected sample %d never failed", tc.name, s)
			}
		}
		if tc.wholeBatch && len(lost) <= 2 {
			t.Errorf("%s: failed round trips lost only %d samples; the whole-batch path is not exercised", tc.name, len(lost))
		}
		if rep.Failed != len(lost) {
			t.Errorf("%s: Failed = %d, want the %d samples of failed fetches", tc.name, rep.Failed, len(lost))
		}
		if rep.Samples != n-len(lost) {
			t.Errorf("%s: Samples = %d, want %d", tc.name, rep.Samples, n-len(lost))
		}
	}
}

// TestDegradedModeAllFailedErrors: an epoch that loses every sample is not
// a success — it must still error out.
func TestDegradedModeAllFailedErrors(t *testing.T) {
	h := newHarness(t, 16, 0)
	cfg := h.config()
	inner := cfg.DialClient
	cfg.DialClient = func() (StorageClient, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		return &failingClient{StorageClient: c, fails: func(uint32) bool { return true }}, nil
	}
	cfg.DegradedMode = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.RunEpoch(1, nil, nil); err == nil {
		t.Fatal("epoch with every sample failed reported success")
	}
}

// TestStrictModeAbortsOnFailure: without DegradedMode the first failed
// sample aborts the epoch — the seed behaviour, unchanged — whether one item
// failed or a whole round trip did.
func TestStrictModeAbortsOnFailure(t *testing.T) {
	h := newHarness(t, 16, 0)
	for _, tc := range []struct {
		name       string
		batch      int
		wholeBatch bool
	}{
		{"per-sample", 0, false},
		{"whole batch", 4, true},
	} {
		cfg := h.config()
		inner := cfg.DialClient
		cfg.DialClient = func() (StorageClient, error) {
			c, err := inner()
			if err != nil {
				return nil, err
			}
			return &failingClient{StorageClient: c, fails: func(s uint32) bool { return s == 7 }, wholeBatch: tc.wholeBatch}, nil
		}
		cfg.FetchBatchSize = tc.batch
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = tr.RunEpoch(1, nil, nil)
		tr.Close()
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s: strict epoch err = %v, want the injected failure", tc.name, err)
		}
	}
}
