package main

import (
	"net"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// jobID is the training job every client announces; it seeds augmentation.
const jobID = 1

// loopback is the bandwidth the planner is told an unshaped loopback link
// has. Its exact value does not matter as long as the link is never the
// planner's bottleneck, which is what unshaped means here.
var loopback = netsim.Mbps(10_000)

// workload is one benchmark scenario: the generated dataset, the tier that
// serves it, the loader, and the environment the planner is told about.
// README.md says why each one exists and which layers it stresses.
type workload struct {
	images dataset.SyntheticOptions // N and the size range; Seed is --seed
	crop   int
	batch  int
	// loader holds the trainer's loader knobs; the harness fills in the
	// client, pipeline, GPU, clock and instrumentation.
	loader trainsim.Config
	env    policy.Env
	setups int // set-ups per run; setup_s is their median
	// spareP runs the process with one Go P more than there are CPUs. The
	// tier shares the process with the trainer; when prep workers keep
	// every P busy with long calls, a goroutine whose timer fires (the GPU
	// step, a server handler) waits 10-20 ms for the runtime to preempt
	// one, a wait no separate storage node would impose. The spare P leaves
	// that time-slicing to the kernel.
	spareP bool
	start  func(objects [][]byte, pipe *pipeline.Pipeline) (*tier, error)
}

var workloads = map[string]*workload{
	// The paper's I/O-bound regime: a slow link that the planner relieves by
	// offloading prefixes to one storage core.
	"offload_io": {
		images: dataset.SyntheticOptions{N: 600, MinDim: 80, MaxDim: 480},
		crop:   96,
		batch:  8,
		loader: trainsim.Config{Workers: 2, ComputeCores: 1, FetchBatchSize: 8},
		env: policy.Env{Bandwidth: netsim.Mbps(20), ComputeCores: 1, StorageCores: 1,
			StorageSlowdown: 1, GPU: gpu.AlexNet},
		setups: 1,
		start:  tcpTier(1, 20, 0),
	},
	// Client-side decode, crop and tensor work on an unshaped link, with a
	// half-size local cache; the planner declines to offload.
	"local_prep": {
		images: dataset.SyntheticOptions{N: 600, MinDim: 80, MaxDim: 480},
		crop:   224,
		batch:  16,
		loader: trainsim.Config{Workers: 2, ComputeCores: 2, Lookahead: 2, VarianceAware: true},
		env: policy.Env{Bandwidth: loopback, ComputeCores: 2, StorageCores: 1,
			StorageSlowdown: 1, GPU: gpu.AlexNet},
		spareP: true,
		setups: 3,
		start:  tcpTier(1, 0, 0.5),
	},
	// CIFAR-scale samples, one round trip each, fanned out over three shards
	// behind one admission controller: per-request cost dominates.
	"small_rpc": {
		images: dataset.SyntheticOptions{N: 6000, MinDim: 24, MaxDim: 64},
		crop:   32,
		batch:  32,
		loader: trainsim.Config{Workers: 2, ComputeCores: 2, Lookahead: 4, FetchBatchSize: 1},
		env: policy.Env{Bandwidth: loopback, ComputeCores: 2, StorageCores: 1,
			StorageSlowdown: 1, GPU: gpu.Model{Name: "cifar-50k", Throughput: 50_000}, Shards: 3},
		setups: 5,
		start:  shardedTier(3, 1, 64<<20),
	},
}

// tier is a running storage tier and the way to open a session to it.
type tier struct {
	// dial opens one client session, the way trainsim.Config.DialClient
	// wants it.
	dial     func() (trainsim.StorageClient, error)
	counters []*storage.Counters // one per server
	// admission is the tier's admission controller; nil without one.
	admission  *storage.AdmissionController
	cores      int     // offload cores over all servers
	linkRate   float64 // bytes/s of each server's shaped link; 0 = unshaped
	cacheBytes int64   // capacity of the local raw cache; 0 = no cache
	close      func()
}

// tcpTier serves the whole dataset from one storage server on a loopback
// TCP port with cores offload cores, its outbound side shaped to mbps when
// positive. Sessions retry through storage.ReconnectingClient or, when
// cacheShare is positive, read through a NoEvict local raw cache holding
// that share of the dataset's bytes.
func tcpTier(cores int, mbps, cacheShare float64) func([][]byte, *pipeline.Pipeline) (*tier, error) {
	return func(objects [][]byte, pipe *pipeline.Pipeline) (*tier, error) {
		store, err := storage.NewStore("livebench", objects)
		if err != nil {
			return nil, err
		}
		srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: pipe, Cores: cores})
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t := &tier{counters: []*storage.Counters{srv.Counters()}, cores: cores}
		serve := net.Listener(l)
		if mbps > 0 {
			t.linkRate = netsim.Mbps(mbps)
			bucket, err := netsim.NewTokenBucket(t.linkRate, 32<<10, nil)
			if err != nil {
				l.Close()
				return nil, err
			}
			serve = netsim.ShapeListener(l, bucket)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(serve)
		}()
		t.close = func() {
			srv.Close()
			l.Close()
			<-done
		}

		addr := l.Addr().String()
		opts := storage.ClientOptions{JobID: jobID}
		t.dial = func() (trainsim.StorageClient, error) {
			return storage.NewReconnecting(func() (*storage.Client, error) {
				return storage.DialWithOptions(addr, opts)
			}, 3, 100*time.Millisecond, nil)
		}
		if cacheShare > 0 {
			// One cache per tier, as a node-local cache outlives any one
			// session: every loader on the tier sees the same resident set.
			t.cacheBytes = int64(cacheShare * float64(store.TotalBytes()))
			lc, err := cache.NewNoEvict(t.cacheBytes)
			if err != nil {
				t.close()
				return nil, err
			}
			t.dial = func() (trainsim.StorageClient, error) {
				c, err := storage.DialWithOptions(addr, opts)
				if err != nil {
					return nil, err
				}
				return cache.NewFetchingCache(c, lc), nil
			}
		}
		return t, nil
	}
}

// shardedTier launches shards in-process servers with cluster.Launch, each
// with coresPerShard offload cores, behind one shared admission controller
// with a budget of admissionBytes in flight. Sessions fan out through
// cluster.ShardedClient in degraded mode, so a sample that keeps failing is
// counted, not fatal.
func shardedTier(shards, coresPerShard int, admissionBytes int64) func([][]byte, *pipeline.Pipeline) (*tier, error) {
	return func(objects [][]byte, pipe *pipeline.Pipeline) (*tier, error) {
		store, err := storage.NewStore("livebench", objects)
		if err != nil {
			return nil, err
		}
		adm, err := storage.NewAdmissionController(storage.AdmissionConfig{MaxInFlightBytes: admissionBytes})
		if err != nil {
			return nil, err
		}
		cl, err := cluster.Launch(cluster.Config{
			Shards: shards, Store: store, Pipeline: pipe, CoresPerShard: coresPerShard, Admission: adm,
		})
		if err != nil {
			return nil, err
		}
		opts := storage.ClientOptions{JobID: jobID}
		return &tier{
			dial: func() (trainsim.StorageClient, error) {
				return cl.NewShardedClient(opts, 3, 100*time.Millisecond, true)
			},
			counters:  cl.Counters(),
			admission: adm,
			cores:     shards * coresPerShard,
			close:     func() { cl.Close() },
		}, nil
	}
}
