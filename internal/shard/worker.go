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

// RunShard executes one shard of a sweep: resolve the priced parent
// of every owned task through sweep.ResolveGrid on c — one lookup per
// task key, the misses priced in one batched pass per GOMAXPROCS
// group of configs — and emit the per-shard manifest. c is the result
// store shards share; a disk-backed cache makes the sharding
// cross-process, and a nil or memory-only cache degrades to pricing
// everything owned, which is correct but unshared.
//
// There is no cross-process locking: two workers that miss the same
// key both price it and store field-equal entries, because pricing is
// deterministic. A crashed worker therefore leaves nothing a rerun
// must wait on, and the rerun serves its finished entries as cache
// hits. The manifest depends only on (workload, grid, spec): re-running
// a shard over any cache state, or racing it against an overlapping
// shard, yields byte-identical manifests.
//
// fp is w.Fingerprint(), which the caller has already paid for: a
// server computes it once at upload and a CLI once per run, not once
// per shard.
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
	var owned []Task
	for _, t := range tasks {
		if spec.Owns(t.Seq) {
			owned = append(owned, t)
		}
	}
	entries, computed, err := resolve(ctx, c, w, fp, owned, len(tasks))
	if err != nil {
		return nil, stats, err
	}
	stats = WorkerStats{Owned: len(owned), Computed: computed, CacheHits: len(owned) - computed}
	m := &Manifest{
		Version:  ManifestVersion,
		Workload: fp,
		Grid:     grid,
		GridSize: len(tasks),
		Shard:    spec,
		Entries:  entries,
	}
	sp.AddItems(int64(stats.Owned))
	mtr := obs.RunFromContext(ctx).Metrics()
	mtr.Counter("shard.tasks_owned").Add(int64(stats.Owned))
	mtr.Counter("shard.tasks_computed").Add(int64(stats.Computed))
	mtr.Counter("shard.tasks_cache_hit").Add(int64(stats.CacheHits))
	return m, stats, nil
}

// resolve prices tasks (of a grid of n) through sweep.ResolveGrid
// with GOMAXPROCS workers and builds their manifest entries in task
// order; computed counts the tasks priced rather than served from c.
// It is the only place an Entry is built, shared by RunShard and
// RunSequential.
func resolve(ctx context.Context, c *cache.Cache, w *trace.Workload, fp trace.Fingerprint, tasks []Task, n int) ([]Entry, int, error) {
	if len(tasks) == 0 {
		return nil, 0, nil
	}
	cfgs := make([]gpu.Config, len(tasks))
	for i, t := range tasks {
		cfgs[i] = t.Config
	}
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		return nil, 0, err
	}
	priced, computed, err := sweep.ResolveGrid(ctx, c, base, fp, cfgs, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: pricing %d of %d tasks: %w", len(tasks), n, err)
	}
	entries := make([]Entry, len(tasks))
	for i, t := range tasks {
		p := &priced[i]
		entries[i] = Entry{
			Seq:          t.Seq,
			CoreClockGHz: t.Config.CoreClockGHz,
			MemClockGHz:  t.Config.MemClockGHz,
			ConfigFP:     t.Config.Fingerprint(),
			Key:          t.Key,
			Frames:       len(p.FrameNs),
			FrameDigest:  frameDigest(p.FrameNs),
			TotalNs:      p.TotalNs,
			Totals:       p.Totals,
		}
	}
	return entries, computed, nil
}
