package sweep

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// PricedParent is the cacheable product of pricing a parent workload
// on one configuration: per-frame and total nanoseconds plus the
// aggregate totals the power model consumes (gpu.PricedRun, under the
// name its cache entries are encoded with). Config.Name is not part
// of it — the cache key uses the config's cost-model fingerprint, so
// two differently-named but identically-priced configs share one
// entry.
type PricedParent gpu.PricedRun

// PriceKey is the content address of PriceParent's product: the cache
// key under which pricing workload fp on cfg is stored. It is exported
// because the shard layer resolves distributed work by exactly this
// key — a worker and the sequential path must always agree on the
// address or sharded runs would recompute (or worse, miss) the
// sequential path's entries.
func PriceKey(fp trace.Fingerprint, cfg gpu.Config) cache.Key {
	cfgFp := cfg.Fingerprint()
	return cache.NewKey("sweep.price", gpu.ModelVersion).
		Bytes(fp[:]).
		Bytes(cfgFp[:]).
		Sum()
}

// PriceParent prices every frame of the simulator's workload on its
// config: ResolveGrid on one config, served through the result cache
// when ctx carries a binding (cache.WithWorkload) for the workload. A
// hit skips the full per-draw pricing pass — the dominant cost of a
// grid sweep.
func PriceParent(ctx context.Context, sim *gpu.Simulator) (PricedParent, error) {
	c, fp, _ := cache.ForWorkload(ctx)
	priced, _, err := ResolveGrid(ctx, c, sim, fp, []gpu.Config{sim.Config()}, 1)
	if err != nil {
		return PricedParent{}, err
	}
	return priced[0], nil
}

// PriceConfig derives the per-config simulator from base (skipping
// re-validation of the workload) and prices the parent on it through
// PriceParent. w is the workload base was built on; base carries it,
// so it is not read. i and n only shape the error context
// ("config i+1/n").
func PriceConfig(ctx context.Context, base *gpu.Simulator, w *trace.Workload, cfg gpu.Config, i, n int) (*gpu.Simulator, PricedParent, error) {
	sim, err := base.WithConfig(cfg)
	if err != nil {
		return nil, PricedParent{}, err
	}
	priced, err := PriceParent(ctx, sim)
	if err != nil {
		return nil, PricedParent{}, fmt.Errorf("sweep: config %d/%d: %w", i+1, n, err)
	}
	return sim, priced, nil
}

// ResolveGrid is the one grid resolver every grid consumer shares:
// the shard worker, the sequential sweep, the validation and energy
// sweeps, the service's sweep and price queries. It looks up every
// config's PriceKey (workload fp) in c, prices all the misses with
// one gpu.Simulator.PriceGrid on base — at most workers goroutines
// (<= 0 selects GOMAXPROCS), each walking the draws once for its
// contiguous group of configs — and stores each priced result. It
// returns the priced parent per config, in cfgs order, and how many
// were priced rather than served from c. A nil c prices every config.
//
// Misses priced in one batch are not single-flighted per key: a
// concurrent resolver that misses the same key prices it too, and
// both store field-equal entries, because pricing is deterministic.
// A canceled batch stores nothing.
func ResolveGrid(ctx context.Context, c *cache.Cache, base *gpu.Simulator, fp trace.Fingerprint, cfgs []gpu.Config, workers int) ([]PricedParent, int, error) {
	out := make([]PricedParent, len(cfgs))
	var (
		keys  []cache.Key
		miss  []int
		mcfgs []gpu.Config
	)
	for i, cfg := range cfgs {
		var k cache.Key
		if c != nil {
			k = PriceKey(fp, cfg)
			if p, ok := cache.Get[PricedParent](ctx, c, k); ok {
				out[i] = p
				continue
			}
			// A lookup cut short by cancellation is a miss; do not
			// price on behalf of a canceled caller.
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		keys = append(keys, k)
		miss = append(miss, i)
		mcfgs = append(mcfgs, cfg)
	}
	if len(miss) == 0 {
		return out, 0, nil
	}

	pctx, sp := obs.StartSpan(ctx, "price-grid")
	sp.AddItems(int64(len(miss)))
	sp.SetWorkers(min(parallel.Workers(workers), len(miss)))
	runs, err := base.PriceGrid(pctx, mcfgs, workers)
	sp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: %w", err)
	}
	obs.RunFromContext(ctx).Metrics().Counter("sweep.configs_priced").Add(int64(len(miss)))
	for j, i := range miss {
		out[i] = PricedParent(runs[j])
		cache.Put(ctx, c, keys[j], out[i])
	}
	return out, len(miss), nil
}

// RunResult converts the priced parent back to the simulator-level
// result shape, restoring the config name the cache key omits.
func (p PricedParent) RunResult(configName string) gpu.RunResult {
	return gpu.RunResult{ConfigName: configName, FrameNs: p.FrameNs, TotalNs: p.TotalNs}
}
