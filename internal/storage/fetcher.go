package storage

import (
	"context"
	"fmt"
)

// Fetcher is the one client contract every layer of the fetch stack speaks:
// leaf sessions (*Client, *ReconnectingClient), the sharded fan-out
// (*cluster.ShardedClient), the caches (*cache.FetchingCache,
// *cache.TenantFetcher) and the trainer that drives them. Plan-version
// stamping and shard topology are part of the contract rather than optional
// capabilities discovered by type assertion, so a wrapper that embeds a
// Fetcher forwards every method it does not intercept and cannot silently
// drop one. Implementations must be safe for concurrent use: the trainer
// pipelines many in-flight requests over one shared stack.
type Fetcher interface {
	Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (FetchResult, error)
	FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]FetchResult, error)
	NumSamples() int
	Close() error
	PlanVersioner
	ShardRouter
}

// PlanVersioner stamps outgoing fetch directives with the control plane's
// current plan version.
type PlanVersioner interface {
	// SetPlanVersion updates the version stamped on subsequent fetches.
	// Requests already in flight keep the version they were issued under —
	// mixed-version traffic during a plan swap is legal because fetches are
	// idempotent (augmentation seeds depend only on job, epoch, sample).
	SetPlanVersion(v uint32)
}

// ShardRouter is the shard topology the clairvoyant prefetch scheduler
// drives: a placement function plus sub-batches routed to one shard.
// *cluster.ShardedClient has real shards; leaf sessions report a single
// unrouted shard, and the trainer then treats the whole tier as one link.
type ShardRouter interface {
	// ShardInfo reports the fan-out width and placement function, or
	// ok=false when the underlying transport has no shard structure (the
	// caller should fall back to single-link scheduling).
	ShardInfo() (shards int, shardOf func(sample uint32) int, ok bool)
	// FetchShard issues one round trip for a sub-batch that lives entirely
	// on the given shard, bypassing the fan-out partitioner. Per-item
	// errors surface in FetchResult.Err; a non-nil error describes the
	// whole round trip (shard transport failure, validation).
	FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]FetchResult, error)
}

// checkLeafShard validates a FetchShard call on a leaf session, whose only
// shard is shard 0.
func checkLeafShard(shard int) error {
	if shard != 0 {
		return fmt.Errorf("storage: shard %d out of range [0,1)", shard)
	}
	return nil
}
