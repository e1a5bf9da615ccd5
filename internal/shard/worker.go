package shard

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// WorkerStats accounts one RunShard.
type WorkerStats struct {
	Owned     int // tasks this shard was responsible for
	Computed  int // ... priced by this worker
	CacheHits int // ... resolved from the shared cache without pricing
}

// RunShard executes one shard of a sweep: for every owned task in grid
// order, resolve the priced parent with one lookup-or-compute on the
// task's key in c, and emit the per-shard manifest. c is the result
// store shards share; a disk-backed cache makes the sharding
// cross-process, and a nil or memory-only cache degrades to pricing
// everything owned, which is correct but unshared.
//
// There is no cross-process locking: two workers that miss the same
// key both price it and store field-equal entries, because pricing is
// deterministic. A crashed worker therefore leaves nothing a rerun
// must wait on, and the rerun serves its finished entries as cache
// hits. The manifest
// depends only on (workload, grid, spec): re-running a shard over any
// cache state, or racing it against an overlapping shard, yields
// byte-identical manifests.
//
// fp is w.Fingerprint(), which the caller has already paid for: a
// server computes it once at upload and a CLI once per run, not once
// per shard. ctx must not carry a cache binding (cache.WithWorkload):
// the task key is resolved here, and pricing underneath runs uncached.
func RunShard(ctx context.Context, c *cache.Cache, w *trace.Workload, fp trace.Fingerprint, cfgs []gpu.Config, spec Spec) (*Manifest, WorkerStats, error) {
	var stats WorkerStats
	if err := spec.Validate(); err != nil {
		return nil, stats, err
	}
	ctx, sp := obs.StartSpan(ctx, "shard-worker")
	defer sp.End()

	tasks, grid, err := Plan(fp, cfgs)
	if err != nil {
		return nil, stats, err
	}
	// The base simulator validates the workload once; per-task sims
	// derive from it exactly like the sequential sweep's do.
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		return nil, stats, err
	}

	m := &Manifest{
		Version:  ManifestVersion,
		Workload: fp,
		Grid:     grid,
		GridSize: len(tasks),
		Shard:    spec,
	}
	for _, t := range tasks {
		if !spec.Owns(t.Seq) {
			continue
		}
		stats.Owned++
		e, computed, err := resolveTask(ctx, c, base, w, t, len(tasks))
		if err != nil {
			return nil, stats, err
		}
		if computed {
			stats.Computed++
		} else {
			stats.CacheHits++
		}
		m.Entries = append(m.Entries, e)
	}
	sp.AddItems(int64(stats.Owned))
	mtr := obs.RunFromContext(ctx).Metrics()
	mtr.Counter("shard.tasks_owned").Add(int64(stats.Owned))
	mtr.Counter("shard.tasks_computed").Add(int64(stats.Computed))
	mtr.Counter("shard.tasks_cache_hit").Add(int64(stats.CacheHits))
	return m, stats, nil
}

// resolveTask builds one task's manifest entry from a single
// lookup-or-compute on t.Key; computed reports whether this call
// priced the task. It is the only place an Entry is built, shared by
// RunShard and RunSequential.
func resolveTask(ctx context.Context, c *cache.Cache, base *gpu.Simulator, w *trace.Workload, t Task, n int) (Entry, bool, error) {
	computed := false
	priced, err := cache.GetOrCompute(ctx, c, t.Key, func() (sweep.PricedParent, error) {
		computed = true
		_, p, err := sweep.PriceConfig(ctx, base, w, t.Config, t.Seq, n)
		return p, err
	})
	if err != nil {
		return Entry{}, false, fmt.Errorf("shard: task %d/%d: %w", t.Seq+1, n, err)
	}
	return Entry{
		Seq:          t.Seq,
		CoreClockGHz: t.Config.CoreClockGHz,
		MemClockGHz:  t.Config.MemClockGHz,
		ConfigFP:     t.Config.Fingerprint(),
		Key:          t.Key,
		Frames:       len(priced.FrameNs),
		FrameDigest:  frameDigest(priced.FrameNs),
		TotalNs:      priced.TotalNs,
		Totals:       priced.Totals,
	}, computed, nil
}
