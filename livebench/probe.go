package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/trainsim"
)

// stepClock is the trainer's clock (trainsim.Config.Clock): real time, with
// the start of every simulated GPU step, the trainer's only Sleep, recorded.
// Both the timed and the traced loaders use it, because the intervals
// between steps are an end-to-end metric.
type stepClock struct {
	mu    sync.Mutex
	steps []time.Time
}

func (c *stepClock) Now() time.Time                         { return time.Now() }
func (c *stepClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (c *stepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.steps = append(c.steps, time.Now())
	c.mu.Unlock()
	time.Sleep(d)
}

// intervals returns the gaps between consecutive steps recorded after the
// first mark ones.
func (c *stepClock) intervals(mark int) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []time.Duration
	for i := mark + 1; i < len(c.steps); i++ {
		out = append(out, c.steps[i].Sub(c.steps[i-1]))
	}
	return out
}

func (c *stepClock) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.steps)
}

// rttProbe times every storage round trip the trainer issues, as the client
// the traced loader's DialClient returns. It forwards the optional client
// capabilities the trainer looks for, plan-version stamping and shard
// routing, so the traced loader runs the same code path as the untraced one.
type rttProbe struct {
	trainsim.StorageClient

	mu         sync.Mutex
	rtts       []time.Duration
	shardCalls int
}

func (p *rttProbe) observe(start time.Time, shard bool) {
	d := time.Since(start)
	p.mu.Lock()
	p.rtts = append(p.rtts, d)
	if shard {
		p.shardCalls++
	}
	p.mu.Unlock()
}

// take returns the round trips since the last take, and how many of them
// were shard-routed.
func (p *rttProbe) take() (rtts []time.Duration, shardCalls int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rtts, shardCalls = p.rtts, p.shardCalls
	p.rtts, p.shardCalls = nil, 0
	return rtts, shardCalls
}

func (p *rttProbe) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	start := time.Now()
	res, err := p.StorageClient.Fetch(ctx, sample, split, epoch)
	p.observe(start, false)
	return res, err
}

func (p *rttProbe) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	start := time.Now()
	res, err := p.StorageClient.FetchBatch(ctx, samples, splits, epoch)
	p.observe(start, false)
	return res, err
}

// SetPlanVersion implements storage.PlanVersioner when the wrapped client does.
func (p *rttProbe) SetPlanVersion(v uint32) {
	if pv, ok := p.StorageClient.(storage.PlanVersioner); ok {
		pv.SetPlanVersion(v)
	}
}

// ShardInfo implements storage.ShardRouter, reporting ok=false when the
// wrapped client has no shard structure, as a plain client would.
func (p *rttProbe) ShardInfo() (int, func(uint32) int, bool) {
	if r, ok := p.StorageClient.(storage.ShardRouter); ok {
		return r.ShardInfo()
	}
	return 0, nil, false
}

func (p *rttProbe) FetchShard(ctx context.Context, shard int, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	r, ok := p.StorageClient.(storage.ShardRouter)
	if !ok {
		return nil, errors.New("livebench: wrapped client has no shards")
	}
	start := time.Now()
	res, err := r.FetchShard(ctx, shard, samples, splits, epoch)
	p.observe(start, true)
	return res, err
}

// resetPeakRSS restarts the kernel's peak-resident-set count for this
// process, so a later peakRSS covers only what ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set in bytes (VmHWM).
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
