package cache

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/storage"
)

// TenantFetcher is one tenant's view of the fleet's shared artifact cache:
// fetches are keyed by (dataset, sample, cut) — not by tenant — so artifacts
// another tenant of the same share group already pulled are served from
// local memory at zero wire bytes, with hits and bytes accounted to this
// tenant in the shared cache's per-tenant counters. It stacks over any
// storage.Fetcher.
//
// Correctness contract: every tenant of a share group must dial the storage
// tier with the group's dataset share key as job ID, so offloaded prefixes
// derive augmentation randomness from the shared seed and the cached bytes
// are bit-identical no matter which tenant fetched first. Hits decode a
// fresh artifact from the immutable cached encoding, so tenants never alias
// (and can never corrupt) each other's buffers.
type TenantFetcher struct {
	storage.Fetcher
	shared  *SharedArtifactCache
	tenant  string
	dataset uint64
}

// NewTenantFetcher wraps inner for one tenant of a share group. dataset is
// the group's share key (the job ID the inner client dialed with).
func NewTenantFetcher(inner storage.Fetcher, shared *SharedArtifactCache, tenant string, dataset uint64) (*TenantFetcher, error) {
	if inner == nil {
		return nil, errors.New("cache: tenant fetcher needs a client")
	}
	if shared == nil {
		return nil, errors.New("cache: tenant fetcher needs a shared cache")
	}
	if tenant == "" {
		return nil, errors.New("cache: tenant fetcher needs a tenant name")
	}
	return &TenantFetcher{Fetcher: inner, shared: shared, tenant: tenant, dataset: dataset}, nil
}

// Fetch serves the sample from the shared cache when any tenant of the share
// group already fetched it, and forwards (then retains) otherwise.
func (t *TenantFetcher) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	return fetchThrough(ctx, t, t.Fetcher, sample, split, epoch)
}

// FetchBatch serves shared-cache hits locally and forwards only the misses,
// preserving request order.
func (t *TenantFetcher) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	return batchThrough(t, samples, splits, epoch, func(s []uint32, sp []int) ([]storage.FetchResult, error) {
		return t.Fetcher.FetchBatch(ctx, s, sp, epoch)
	})
}

// FetchShard serves shared-cache hits locally and sends only the misses to
// the shard's link, which makes the prefetcher's per-shard issue queues
// cache-aware: a stream entry another tenant already pulled never occupies
// the link at all.
func (t *TenantFetcher) FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	return batchThrough(t, samples, splits, epoch, func(s []uint32, sp []int) ([]storage.FetchResult, error) {
		return t.Fetcher.FetchShard(ctx, shard, s, sp, epoch)
	})
}

// key builds the fleet-wide artifact key for one fetch. Raw (cut-0)
// artifacts carry no per-epoch randomness and share across epochs. The
// split is a packed directive (see storage.PackDirective): the fidelity
// half must land in its own key dimension — a bare uint8 cast of the packed
// int would collapse a reduced-fidelity fetch onto the full-fidelity key
// and serve truncated bytes to full-fidelity readers.
func (t *TenantFetcher) key(sample uint32, split int, epoch uint64) ArtifactKey {
	cut, fid := storage.UnpackDirective(split)
	k := ArtifactKey{Dataset: t.dataset, Sample: sample, Cut: uint8(cut), Fidelity: uint8(fid)}
	if cut > 0 {
		k.Epoch = epoch
	}
	return k
}

// lookup decodes a cached encoding into a fresh, caller-owned artifact.
func (t *TenantFetcher) lookup(sample uint32, split int, epoch uint64) (storage.FetchResult, bool, error) {
	data, ok := t.shared.Get(t.tenant, t.key(sample, split, epoch))
	if !ok {
		return storage.FetchResult{}, false, nil
	}
	art, err := pipeline.DecodeArtifact(data)
	if err != nil {
		// A corrupt cache entry would be a bug, not an I/O fault; surface it.
		return storage.FetchResult{}, false, fmt.Errorf("cache: shared entry for sample %d: %w", sample, err)
	}
	cut, fid := storage.UnpackDirective(split)
	return storage.FetchResult{Sample: sample, Artifact: art, Split: cut, Fidelity: fid}, true, nil
}

// keep encodes a fetched artifact into a plain owned buffer for the shared
// cache. The source artifact is only read, never retained or released.
func (t *TenantFetcher) keep(sample uint32, split int, epoch uint64, res storage.FetchResult) {
	enc, err := res.Artifact.AppendEncode(make([]byte, 0, res.Artifact.WireSize()))
	if err != nil {
		return // unencodable artifact kinds are simply not cached
	}
	t.shared.Put(t.tenant, t.key(sample, split, epoch), enc)
}

// Stats returns this tenant's slice of the shared cache accounting.
func (t *TenantFetcher) Stats() TenantCacheStats { return t.shared.TenantStats(t.tenant) }

// Shared exposes the underlying fleet cache (monitor wiring).
func (t *TenantFetcher) Shared() *SharedArtifactCache { return t.shared }
