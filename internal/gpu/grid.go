package gpu

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// PricedRun is one config's priced pass over the whole workload:
// per-frame times summing draws in order, the total summing frames in
// order (as RunParallel folds), and Totals summing draws in order (as
// RunTotals folds).
type PricedRun struct {
	FrameNs []float64
	TotalNs float64
	Totals  Totals
}

// PriceGrid prices the simulator's workload on every config of cfgs
// and returns one PricedRun per config, in order. The configs are
// split into at most workers contiguous groups (<= 0 selects
// GOMAXPROCS), priced concurrently, and each group walks the draws
// once: per draw it computes the config-independent terms and the
// noise variate once, the texture traffic once per distinct cache
// geometry, and then runs the per-config half of the kernel for every
// config of the group. Each config keeps its own accumulators in the
// same order as a one-config pass, so every result is bit-identical to
// DrawTotals folded config by config, at any grouping and worker
// count. Cancellation is checked once per frame.
func (s *Simulator) PriceGrid(ctx context.Context, cfgs []Config, workers int) ([]PricedRun, error) {
	sims := make([]Simulator, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		sims[i] = newSimulator(cfg, s.w, s.res)
	}
	runs := make([]PricedRun, len(cfgs))
	groups := min(parallel.Workers(workers), len(cfgs))
	err := parallel.ForEach(ctx, groups, groups, func(ctx context.Context, g int) error {
		lo, hi := g*len(cfgs)/groups, (g+1)*len(cfgs)/groups
		return s.priceBatch(ctx, sims[lo:hi], runs[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// texGeometry is the part of a config the texture traffic model reads.
type texGeometry struct{ cacheBytes, lineB int }

// priceBatch is one pass over the workload's draws for a batch of
// configs, filling runs[i] for sims[i].
func (s *Simulator) priceBatch(ctx context.Context, sims []Simulator, runs []PricedRun) error {
	var geoms []texGeometry
	geomOf := make([]int, len(sims))
	for i := range sims {
		g := texGeometry{sims[i].texCacheBytes, sims[i].cfg.TexCacheLineB}
		j := slices.Index(geoms, g)
		if j < 0 {
			j = len(geoms)
			geoms = append(geoms, g)
		}
		geomOf[i] = j
	}
	tts := make([]texTraffic, len(geoms))
	frameNs := make([]float64, len(sims))
	frames := s.w.Frames
	for i := range runs {
		runs[i].FrameNs = make([]float64, len(frames))
	}

	var (
		t  drawTerms
		dc DrawCost
	)
	for fi := range frames {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("gpu: pricing canceled at frame %d/%d: %w", fi, len(frames), err)
		}
		clear(frameNs)
		f := &frames[fi]
		for di := range f.Draws {
			d := &f.Draws[di]
			samples, workingSet := s.res.drawTerms(d, &t)
			for g, geo := range geoms {
				tts[g] = modelTexTraffic(samples, workingSet, geo.cacheBytes, geo.lineB)
			}
			noiseZ := drawNoiseZ(d)
			for i := range sims {
				sims[i].priceTerms(&t, tts[geomOf[i]], &dc)
				sims[i].finalize(&dc, noiseZ)
				frameNs[i] += dc.TotalNs
				tot := &runs[i].Totals
				tot.TotalNs += dc.TotalNs
				tot.ComputeNs += dc.ComputeNs
				tot.MemoryNs += dc.MemoryNs
				tot.TrafficBytes += dc.traffic()
			}
		}
		for i := range runs {
			runs[i].FrameNs[fi] = frameNs[i]
			runs[i].TotalNs += frameNs[i]
		}
	}
	return nil
}
