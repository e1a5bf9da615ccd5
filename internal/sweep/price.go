package sweep

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/trace"
)

// PricedParent is the cacheable product of pricing a parent workload
// on one configuration: per-frame and total nanoseconds plus the
// aggregate totals the power model consumes. Config.Name is not part
// of it — the cache key uses the config's cost-model fingerprint, so
// two differently-named but identically-priced configs share one
// entry.
type PricedParent struct {
	FrameNs []float64
	TotalNs float64
	Totals  gpu.Totals
}

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

// PriceParent prices every frame of w on the simulator, served
// through the result cache when ctx carries a binding
// (cache.WithWorkload) for w. The key is PriceKey (workload
// fingerprint, config cost-model fingerprint, gpu.ModelVersion); a hit
// skips the full per-draw pricing pass — the dominant cost of a grid
// sweep. Without a binding it prices directly. sim must have been
// built on w with cfg; the float accumulation order matches
// Simulator.RunParallel exactly, so cached and direct pricing are
// bit-identical.
func PriceParent(ctx context.Context, sim *gpu.Simulator, w *trace.Workload, cfg gpu.Config) (PricedParent, error) {
	c, fp, ok := cache.ForWorkload(ctx)
	if !ok {
		return priceParent(ctx, sim, w)
	}
	return cache.GetOrCompute(ctx, c, PriceKey(fp, cfg), func() (PricedParent, error) {
		return priceParent(ctx, sim, w)
	})
}

// PriceConfig is the one per-config setup path every grid consumer
// shares: derive the per-config simulator from base (skipping
// re-validation) and price the parent on it through the result cache
// when ctx carries one. RunParallel, RunEnergyParallel and the shard
// worker all go through it, so a distributed shard can never drift
// from the sequential path's setup or fold order. i and n only shape
// the error context ("config i+1/n").
func PriceConfig(ctx context.Context, base *gpu.Simulator, w *trace.Workload, cfg gpu.Config, i, n int) (*gpu.Simulator, PricedParent, error) {
	sim, err := base.WithConfig(cfg)
	if err != nil {
		return nil, PricedParent{}, err
	}
	priced, err := PriceParent(ctx, sim, w, cfg)
	if err != nil {
		return nil, PricedParent{}, fmt.Errorf("sweep: config %d/%d: %w", i+1, n, err)
	}
	return sim, priced, nil
}

// priceParent is one full pricing pass with per-frame cancellation.
// Per-frame times sum draws in order and the total sums frames in
// order — the same accumulation as Simulator.RunParallel and RunTotals.
func priceParent(ctx context.Context, sim *gpu.Simulator, w *trace.Workload) (PricedParent, error) {
	p := PricedParent{FrameNs: make([]float64, len(w.Frames))}
	for i := range w.Frames {
		if err := ctx.Err(); err != nil {
			return PricedParent{}, fmt.Errorf("sweep: pricing canceled at frame %d/%d: %w", i, len(w.Frames), err)
		}
		f := &w.Frames[i]
		var frameNs float64
		for di := range f.Draws {
			tn, cn, mn, tb := sim.DrawTotals(&f.Draws[di])
			frameNs += tn
			// Totals folds per draw (as Simulator.RunTotals does) while
			// TotalNs folds per frame (as Simulator.RunParallel does), so
			// both views are bit-identical to their uncached originals.
			p.Totals.TotalNs += tn
			p.Totals.ComputeNs += cn
			p.Totals.MemoryNs += mn
			p.Totals.TrafficBytes += tb
		}
		p.FrameNs[i] = frameNs
		p.TotalNs += frameNs
	}
	return p, nil
}

// RunResult converts the priced parent back to the simulator-level
// result shape, restoring the config name the cache key omits.
func (p PricedParent) RunResult(configName string) gpu.RunResult {
	return gpu.RunResult{ConfigName: configName, FrameNs: p.FrameNs, TotalNs: p.TotalNs}
}
