package sophon

import (
	"context"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// stackUnderTest is one composition of the fetch stack over live servers.
type stackUnderTest struct {
	client   storage.Fetcher
	counters []*storage.Counters // one per server underneath
	shards   int                 // shard count of the transport underneath
	cached   bool                // a cache answers repeated raw fetches
}

// TestFetcherStacksKeepCapabilities drives every wrapper composition the
// repo builds over real servers and checks that none drops a capability of
// the storage.Fetcher contract: shard topology reaches the top of the
// stack, warm FetchShard calls through a cache never touch the wire, and a
// plan version set at the top stamps every server underneath.
func TestFetcherStacksKeepCapabilities(t *testing.T) {
	const n = 24
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
		Name: "stacks", N: n, Seed: 3, MinDim: 32, MaxDim: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	pipe := pipeline.Standard(pipeline.StandardOptions{CropSize: 24, FlipP: -1})
	opts := storage.ClientOptions{JobID: 5}

	transports := []struct {
		name   string
		shards int
		dial   func(*cluster.Cluster) (storage.Fetcher, error)
	}{
		{"Client", 1, func(cl *cluster.Cluster) (storage.Fetcher, error) {
			return cl.DialShard(0, opts)
		}},
		{"ReconnectingClient", 1, func(cl *cluster.Cluster) (storage.Fetcher, error) {
			return storage.NewReconnecting(func() (*storage.Client, error) {
				return cl.DialShard(0, opts)
			}, 3, time.Millisecond, nil)
		}},
		{"ShardedClient", 3, func(cl *cluster.Cluster) (storage.Fetcher, error) {
			return cl.NewShardedClient(opts, 3, time.Millisecond, false)
		}},
	}
	wrappers := []struct {
		name   string
		cached bool
		wrap   func(storage.Fetcher) (storage.Fetcher, error)
	}{
		{"bare", false, func(f storage.Fetcher) (storage.Fetcher, error) { return f, nil }},
		{"FetchingCache", true, func(f storage.Fetcher) (storage.Fetcher, error) {
			c, err := cache.NewNoEvict(64 << 20)
			if err != nil {
				return nil, err
			}
			return cache.NewFetchingCache(f, c), nil
		}},
		{"TenantFetcher", true, func(f storage.Fetcher) (storage.Fetcher, error) {
			shared, err := cache.NewShared(64 << 20)
			if err != nil {
				return nil, err
			}
			return cache.NewTenantFetcher(f, shared, "tenant", opts.JobID)
		}},
	}
	for _, tr := range transports {
		for _, w := range wrappers {
			t.Run(w.name+"/"+tr.name, func(t *testing.T) {
				cl, err := cluster.Launch(cluster.Config{
					Shards: tr.shards, Store: store, Pipeline: pipe, CoresPerShard: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				inner, err := tr.dial(cl)
				if err != nil {
					t.Fatal(err)
				}
				client, err := w.wrap(inner)
				if err != nil {
					inner.Close()
					t.Fatal(err)
				}
				t.Cleanup(func() { client.Close() })
				checkStack(t, stackUnderTest{client: client, counters: cl.Counters(), shards: tr.shards, cached: w.cached})
			})
		}
	}

	t.Run("Cluster.NewTrainer", func(t *testing.T) {
		c, err := StartCluster(ClusterConfig{
			DatasetName: "stacks", NumSamples: n, Seed: 3, MinDim: 32, MaxDim: 80,
			CropSize: 24, StorageCores: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		shared, err := NewSharedArtifactCache(64 << 20)
		if err != nil {
			t.Fatal(err)
		}
		dial, err := c.clientStack(TrainerOptions{
			JobID: opts.JobID, CacheBytes: 64 << 20, SharedCache: shared, TenantName: "tenant",
		})
		if err != nil {
			t.Fatal(err)
		}
		client, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		checkStack(t, stackUnderTest{client: client, counters: []*storage.Counters{c.serverCounters()}, shards: 1, cached: true})
	})
}

func checkStack(t *testing.T, s stackUnderTest) {
	t.Helper()
	ctx := context.Background()
	shards, shardOf, routed := s.client.ShardInfo()
	if shards != s.shards || routed != (s.shards > 1) || routed != (shardOf != nil) {
		t.Fatalf("ShardInfo = (%d, %v, %v), want %d shards routed=%v",
			shards, shardOf != nil, routed, s.shards, s.shards > 1)
	}
	n := s.client.NumSamples()
	all := make([]uint32, n)
	owned := make([][]uint32, shards)
	for id := range all {
		all[id] = uint32(id)
		sh := 0
		if routed {
			sh = shardOf(uint32(id))
		}
		owned[sh] = append(owned[sh], uint32(id))
	}
	directives := func(k, split int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = split
		}
		return out
	}
	fetchShards := func(split int, epoch uint64) (wireBytes int) {
		t.Helper()
		for sh, ids := range owned {
			res, err := s.client.FetchShard(ctx, sh, ids, directives(len(ids), split), epoch)
			if err != nil {
				t.Fatalf("FetchShard(%d): %v", sh, err)
			}
			for k, r := range res {
				if r.Err != nil || r.Sample != ids[k] {
					t.Fatalf("FetchShard(%d) item %d: sample %d, err %v", sh, k, r.Sample, r.Err)
				}
				wireBytes += r.WireBytes
			}
		}
		return wireBytes
	}
	served := func() (sum uint64) {
		for _, c := range s.counters {
			sum += c.SamplesServed.Load()
		}
		return sum
	}
	checkVersion := func(v uint32) {
		t.Helper()
		for i, c := range s.counters {
			if got := c.PlanVersion.Load(); got != v {
				t.Fatalf("server %d plan version = %d, want %d", i, got, v)
			}
		}
	}

	// Cold: every raw sample crosses the wire once, stamped with v3.
	s.client.SetPlanVersion(3)
	res, err := s.client.FetchBatch(ctx, all, directives(n, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil || r.WireBytes == 0 {
			t.Fatalf("cold fetch of sample %d: wire=%d err=%v", r.Sample, r.WireBytes, r.Err)
		}
	}
	checkVersion(3)

	// Warm, shard by shard: a cache answers every item locally.
	before := served()
	wireBytes := fetchShards(0, 1)
	delta := served() - before
	if s.cached && (wireBytes != 0 || delta != 0) {
		t.Fatalf("warm FetchShard through the cache: %d wire bytes, %d samples served", wireBytes, delta)
	}
	if !s.cached && (wireBytes == 0 || delta != uint64(n)) {
		t.Fatalf("uncached FetchShard: %d wire bytes, %d of %d samples served", wireBytes, delta, n)
	}

	// Offloaded cuts at a fresh epoch are never cached: they reach every
	// server through FetchShard, stamped with the new version.
	s.client.SetPlanVersion(4)
	if wireBytes := fetchShards(1, 2); wireBytes == 0 {
		t.Fatal("offloaded FetchShard fetched nothing")
	}
	checkVersion(4)
	if _, err := s.client.FetchShard(ctx, shards, owned[0][:1], []int{1}, 3); err == nil {
		t.Fatalf("FetchShard accepted shard %d of %d", shards, shards)
	}
}
