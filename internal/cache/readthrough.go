package cache

import (
	"context"
	"fmt"

	"repro/internal/storage"
)

// tier is a caching wrapper's hit/miss policy over one request: lookup
// serves it from local memory (ok=false on a miss), keep retains a
// successful wire fetch.
//
// Every cache embeds the storage.Fetcher it wraps, so the rest of the
// contract (NumSamples, Close, SetPlanVersion, ShardInfo) forwards
// untouched and the cache keeps the shard topology and plan-version
// stamping of whatever it wraps. It must override all three fetch entry
// points — an embedded FetchShard would bypass the cache — by routing
// Fetch through fetchThrough and FetchBatch/FetchShard through
// batchThrough. Hits cost zero wire bytes and carry no stamp.
type tier interface {
	lookup(sample uint32, split int, epoch uint64) (res storage.FetchResult, ok bool, err error)
	keep(sample uint32, split int, epoch uint64, res storage.FetchResult)
}

// fetchThrough serves one sample from c on a hit and forwards it to inner
// (keeping the result) otherwise.
func fetchThrough(ctx context.Context, c tier, inner storage.Fetcher, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	if res, ok, err := c.lookup(sample, split, epoch); ok || err != nil {
		return res, err
	}
	res, err := inner.Fetch(ctx, sample, split, epoch)
	if err == nil {
		c.keep(sample, split, epoch, res)
	}
	return res, err
}

// batchThrough serves a batch's hits from c and sends the misses through
// miss in one call (a batched or shard-routed round trip), reassembling
// results in request order. Per-item failures scatter through unchanged;
// only successful fetches are kept.
func batchThrough(c tier, samples []uint32, splits []int, epoch uint64, miss func([]uint32, []int) ([]storage.FetchResult, error)) ([]storage.FetchResult, error) {
	if len(samples) != len(splits) {
		return nil, fmt.Errorf("cache: %d samples but %d splits", len(samples), len(splits))
	}
	out := make([]storage.FetchResult, len(samples))
	var missSamples []uint32
	var missSplits []int
	var missIdx []int
	for i := range samples {
		res, ok, err := c.lookup(samples[i], splits[i], epoch)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = res
			continue
		}
		missSamples = append(missSamples, samples[i])
		missSplits = append(missSplits, splits[i])
		missIdx = append(missIdx, i)
	}
	if len(missSamples) > 0 {
		fetched, err := miss(missSamples, missSplits)
		if err != nil {
			return nil, err
		}
		for j, res := range fetched {
			out[missIdx[j]] = res
			if res.Err == nil {
				c.keep(missSamples[j], missSplits[j], epoch, res)
			}
		}
	}
	return out, nil
}
