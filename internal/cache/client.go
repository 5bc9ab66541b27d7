package cache

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// FetchingCache wraps a storage client with a local raw-object cache. Only
// split-0 fetches are cacheable: partially preprocessed artifacts embed
// per-epoch random augmentations and must be recomputed, which is the
// paper's argument for keeping preprocessing online rather than storing
// preprocessed datasets.
//
// Raw fetches that hit the cache cost zero wire bytes; raw misses populate
// it; offloaded fetches bypass it entirely. A reduced-fidelity raw
// directive is served from a cached full object by truncating its
// progressive container locally — bit-identical to the prefix the server
// would slice. Only full-fidelity fetches populate the cache, so a
// truncated container never poisons full-fidelity readers.
type FetchingCache struct {
	storage.Fetcher
	cache Cache
}

// NewFetchingCache wraps client with cache.
func NewFetchingCache(client storage.Fetcher, c Cache) *FetchingCache {
	return &FetchingCache{Fetcher: client, cache: c}
}

// Fetch serves a raw sample from the cache or fetches (and caches) it.
func (f *FetchingCache) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	return fetchThrough(ctx, f, f.Fetcher, sample, split, epoch)
}

// FetchBatch serves cache hits locally and forwards the misses in one
// batched round trip, preserving request order.
func (f *FetchingCache) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	return batchThrough(f, samples, splits, epoch, func(s []uint32, sp []int) ([]storage.FetchResult, error) {
		return f.Fetcher.FetchBatch(ctx, s, sp, epoch)
	})
}

// FetchShard serves cache hits locally and sends only the misses to the
// shard's link.
func (f *FetchingCache) FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	return batchThrough(f, samples, splits, epoch, func(s []uint32, sp []int) ([]storage.FetchResult, error) {
		return f.Fetcher.FetchShard(ctx, shard, s, sp, epoch)
	})
}

func (f *FetchingCache) lookup(sample uint32, split int, _ uint64) (storage.FetchResult, bool, error) {
	cut, fid := storage.UnpackDirective(split)
	if cut != 0 {
		return storage.FetchResult{}, false, nil
	}
	data, ok := f.cache.Get(sample)
	if !ok {
		return storage.FetchResult{}, false, nil
	}
	if fid > 0 {
		if prefix, ok := truncateBodyToFidelity(data, uint8(fid)); ok {
			data = prefix
		}
	}
	return storage.FetchResult{Sample: sample, Artifact: pipeline.RawArtifact(data), Fidelity: fid}, true, nil
}

func (f *FetchingCache) keep(sample uint32, split int, _ uint64, res storage.FetchResult) {
	// split == 0 means cut 0 AND full fidelity: truncated containers are
	// never inserted. Safe to retain: raw artifact payloads are decoded
	// into plain owned memory, never pool-backed buffers (see
	// pipeline.DecodeArtifact), so the cache cannot alias memory the arena
	// might hand out again.
	if split == 0 && res.Artifact.Kind == pipeline.KindRaw {
		f.cache.Put(sample, res.Artifact.Raw)
	}
}

// Stats exposes the underlying cache counters.
func (f *FetchingCache) Stats() Stats { return f.cache.Stats() }

// ExpectedHitFraction estimates the steady-state hit rate of a
// uniform-eviction cache of capacityBytes over repeated full scans of a
// dataset totaling totalBytes: the resident fraction.
func ExpectedHitFraction(capacityBytes, totalBytes int64) float64 {
	if totalBytes <= 0 || capacityBytes <= 0 {
		return 0
	}
	f := float64(capacityBytes) / float64(totalBytes)
	if f > 1 {
		return 1
	}
	return f
}

// ApplyToTrace folds a steady-state cache into a trace copy: a
// deterministic pseudo-random subset of samples totaling ~capacityBytes is
// marked resident, and resident samples' raw (stage-0) wire size drops to
// the 1-byte artifact header — they are served from local memory. Plans
// computed over the adjusted trace automatically skip offloading resident
// samples (their raw form is already free), so SOPHON composes with caching
// for free.
func ApplyToTrace(tr *dataset.Trace, capacityBytes int64, seed uint64) (*dataset.Trace, int) {
	out := &dataset.Trace{Name: tr.Name + "+cache", Records: make([]dataset.Record, tr.N())}
	copy(out.Records, tr.Records)
	if capacityBytes <= 0 {
		return out, 0
	}
	perm := permute(tr.N(), seed)
	var used int64
	resident := 0
	for _, idx := range perm {
		size := out.Records[idx].RawSize
		if used+size > capacityBytes {
			continue
		}
		used += size
		out.Records[idx].StageSizes[0] = 1
		resident++
	}
	return out, resident
}

// permute returns a deterministic permutation of [0, n).
func permute(n int, seed uint64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	s := seed
	for i := n - 1; i > 0; i-- {
		s = splitmix(s)
		j := int(s % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
