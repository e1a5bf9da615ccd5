package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/linalg"
	"repro/internal/shader"
	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// hotpathWorkload is one reduced game (single-thread benchmark target:
// the per-draw hot path, not the fan-out).
func hotpathWorkload(b *testing.B) *trace.Workload {
	b.Helper()
	p := synth.Bioshock1Profile()
	p.Frames = 8
	w, err := tracetest.CachedWorkload(p, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// naiveDrawInto freezes the pre-optimization per-draw extraction as
// the regression reference: shader-mix map probes, error-checked
// registry lookups and Log1p recomputation per draw, exactly as the
// extractor worked before the flat lookup tables. Column order differs
// from the real schema, which is irrelevant here: L2 distances — and
// therefore the clustering — are invariant under column permutation.
func naiveDrawInto(w *trace.Workload, mixes map[shader.ID]shader.Mix, d *trace.DrawCall, dst []float64) {
	vsMix, ok := mixes[d.VS]
	if !ok {
		panic("unknown VS")
	}
	psMix, ok := mixes[d.PS]
	if !ok {
		panic("unknown PS")
	}
	rt, err := w.RenderTarget(d.RT)
	if err != nil {
		panic(err)
	}
	dst[0] = math.Log1p(float64(d.TotalVertices()))
	dst[1] = math.Log1p(float64(d.TotalPrimitives()))
	dst[2] = math.Log1p(float64(d.InstanceCount))
	dst[3] = float64(vsMix.Count(shader.OpALU))
	dst[4] = float64(vsMix.Count(shader.OpSFU))
	dst[5] = float64(vsMix.Count(shader.OpInterp))
	dst[6] = float64(vsMix.Count(shader.OpMem))
	dst[7] = float64(vsMix.Count(shader.OpCF))
	dst[8] = float64(psMix.Count(shader.OpALU))
	dst[9] = float64(psMix.Count(shader.OpSFU))
	dst[10] = float64(psMix.Count(shader.OpTex))
	dst[11] = float64(psMix.Count(shader.OpInterp))
	dst[12] = float64(psMix.Count(shader.OpMem))
	dst[13] = float64(psMix.Count(shader.OpCF))
	var ws float64
	texCount := 0
	for _, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		tex, err := w.Texture(tid)
		if err != nil {
			panic(err)
		}
		ws += float64(tex.Footprint())
		texCount++
	}
	dst[14] = float64(texCount)
	dst[15] = math.Log1p(ws * d.TexLocality)
	dst[16] = d.TexLocality
	pixels := d.CoverageFrac * float64(rt.Pixels())
	dst[17] = math.Log1p(pixels * d.Overdraw)
	dst[18] = d.Overdraw
	dst[19] = math.Log1p(float64(rt.Pixels()))
	if d.BlendEnable {
		dst[20] = 1
	}
	if d.DepthEnable {
		dst[21] = 1
	}
	if d.Topology == trace.TriangleList {
		dst[22] = 1
	}
}

// naiveLeader freezes the linear-scan leader clustering from before the
// first-coordinate index: every point visits every leader in founding
// order with an early-exit distance, then centroids are folded as
// member means. It assigns exactly as cluster.Leader does.
func naiveLeader(x *linalg.Matrix, threshold float64) cluster.Result {
	limit := threshold * threshold
	assign := make([]int, x.Rows)
	var leaders []int
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		best := -1
		bestD := limit
		for c, li := range leaders {
			lrow := x.Row(li)
			var d float64
			for j, v := range row {
				diff := v - lrow[j]
				d += diff * diff
				if d > bestD {
					break
				}
			}
			if d <= bestD {
				best = c
				bestD = d
			}
		}
		if best == -1 {
			best = len(leaders)
			leaders = append(leaders, i)
		}
		assign[i] = best
	}
	k := len(leaders)
	cent := linalg.NewMatrix(k, x.Cols)
	counts := make([]float64, k)
	for i, c := range assign {
		crow := cent.Row(c)
		for j, v := range x.Row(i) {
			crow[j] += v
		}
		counts[c]++
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			linalg.Scale(1/counts[c], cent.Row(c))
		}
	}
	return cluster.Result{Assign: assign, K: k, Centroids: cent}
}

// naiveClusterFrames is the frozen pre-optimization per-frame path: a
// fresh feature matrix per frame filled by naiveDrawInto, batch
// z-score, linear-scan leader clustering (naiveLeader), medoids. It exists to stay slow
// the way the code used to be, so BENCH_hotpath.json's speedup ratios
// measure real improvement machine-independently.
func naiveClusterFrames(b *testing.B, w *trace.Workload, mixes map[shader.ID]shader.Mix, threshold float64) int {
	b.Helper()
	clusters := 0
	for fi := range w.Frames {
		f := &w.Frames[fi]
		m := linalg.NewMatrix(len(f.Draws), features.NumFeatures)
		for i := range f.Draws {
			naiveDrawInto(w, mixes, &f.Draws[i], m.Row(i))
		}
		var z linalg.ZScore
		z.Fit(m)
		for i := 0; i < m.Rows; i++ {
			z.Apply(m.Row(i))
		}
		res := naiveLeader(m, threshold)
		res.Medoids(m)
		clusters += res.K
	}
	return clusters
}

// BenchmarkHotPath measures single-thread per-draw clustering
// throughput across the hot-path arms:
//
//	path=naive      frozen pre-optimization reference (per-draw allocs,
//	                linear-scan exact leader)
//	path=exact      current exact path (flat extraction, scratch reuse)
//	path=bucketed   signature-bucketed leader
//
// `make bench-hotpath` renders this into BENCH_hotpath.json; the
// speedup_vs_naive ratios are the tracked result, and
// cmd/benchguard gates CI on them.
func BenchmarkHotPath(b *testing.B) {
	w := hotpathWorkload(b)
	draws := float64(w.NumDraws())
	const threshold = 0.5

	b.Run("path=naive", func(b *testing.B) {
		mixes := make(map[shader.ID]shader.Mix, w.Shaders.Len())
		for _, p := range w.Shaders.Programs() {
			mixes[p.ID] = p.Analyze()
		}
		clusters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clusters = naiveClusterFrames(b, w, mixes, threshold)
		}
		b.StopTimer()
		b.ReportMetric(float64(clusters), "clusters")
		b.ReportMetric(draws*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
	})

	arms := []struct {
		name   string
		method subset.Method
	}{
		{"exact", subset.Method{Algo: subset.AlgoLeader, Threshold: threshold, Normalizer: "zscore", Mode: subset.ModeExact}},
		{"bucketed", subset.Method{Algo: subset.AlgoLeader, Threshold: threshold, Normalizer: "zscore", Mode: subset.ModeBucketed}},
	}
	for _, arm := range arms {
		b.Run("path="+arm.name, func(b *testing.B) {
			fc, err := subset.NewFrameClusterer(w, arm.method)
			if err != nil {
				b.Fatal(err)
			}
			clusters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clusters = 0
				for fi := range w.Frames {
					cf, err := fc.ClusterFrame(&w.Frames[fi], fi)
					if err != nil {
						b.Fatal(err)
					}
					clusters += cf.Result.K
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(clusters), "clusters")
			b.ReportMetric(draws*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
		})
	}
}

// naiveOracle freezes the pricing oracle as it was before the
// per-workload resource tables, as the regression reference for
// BenchmarkOracle: shader costs in a map keyed by id, and the render
// target and every bound texture's mip-chain footprint resolved from
// the workload (error-checked) on every draw. The gpu package keeps
// its own frozen copy to hold the live oracle bit-exact; this one is
// self-contained because the model's internals are unexported.
type naiveOracle struct {
	cfg   gpu.Config
	w     *trace.Workload
	progs map[shader.ID]naiveProgramCost
}

type naiveProgramCost struct{ clocksPerElem, texPerElem float64 }

func newNaiveOracle(cfg gpu.Config, w *trace.Workload) *naiveOracle {
	opCost := [shader.NumOpKinds]float64{
		shader.OpALU: 1, shader.OpSFU: 4, shader.OpTex: 1,
		shader.OpInterp: 1, shader.OpMem: 2, shader.OpCF: 2,
	}
	progs := make(map[shader.ID]naiveProgramCost, w.Shaders.Len())
	for _, p := range w.Shaders.Programs() {
		var pc naiveProgramCost
		for _, in := range p.Body {
			pc.clocksPerElem += opCost[in.Op]
			if in.Op == shader.OpTex {
				pc.texPerElem++
			}
		}
		progs[p.ID] = pc
	}
	return &naiveOracle{cfg: cfg, w: w, progs: progs}
}

func (s *naiveOracle) drawNs(d *trace.DrawCall) float64 { return s.drawCost(d).TotalNs }

func (s *naiveOracle) drawCost(d *trace.DrawCall) gpu.DrawCost {
	cfg := &s.cfg
	vsPC, ok := s.progs[d.VS]
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown VS %d", d.VS))
	}
	psPC, ok := s.progs[d.PS]
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown PS %d", d.PS))
	}
	rt, err := s.w.RenderTarget(d.RT)
	if err != nil {
		panic(fmt.Sprintf("gpu: %v", err))
	}

	var dc gpu.DrawCost
	verts := float64(d.TotalVertices())
	prims := float64(d.TotalPrimitives())
	covered := d.CoverageFrac * float64(rt.Pixels())
	dc.ShadedPixels = covered * d.Overdraw

	rate := cfg.ShaderRate()
	dc.VSCycles = verts * vsPC.clocksPerElem / rate
	dc.SetupCycles = prims / cfg.PrimSetupRate
	dc.RasterCycles = dc.ShadedPixels / cfg.RasterRate
	dc.PSCycles = dc.ShadedPixels * psPC.clocksPerElem / rate
	ropPixels := dc.ShadedPixels
	if d.BlendEnable {
		ropPixels *= 2
	}
	dc.ROPCycles = ropPixels / cfg.ROPRate
	dc.CoreCycles = naiveMax5(dc.VSCycles, dc.SetupCycles, dc.RasterCycles, dc.PSCycles, dc.ROPCycles)
	dc.ComputeNs = dc.CoreCycles / cfg.CoreClockGHz

	dc.VertexBytes = verts * float64(cfg.VertexSizeB)
	samples := dc.ShadedPixels * psPC.texPerElem
	if samples > 0 {
		var ws float64
		for _, tid := range d.Textures {
			if tid == 0 {
				continue
			}
			tex, err := s.w.Texture(tid)
			if err != nil {
				panic(fmt.Sprintf("gpu: %v", err))
			}
			ws += float64(tex.Footprint())
		}
		ws *= d.TexLocality
		if maxWS := samples * naiveTexelBytes; ws > maxWS {
			ws = maxWS
		}
		tt := naiveTexTraffic(samples, ws, cfg.TexCacheKB*1024, cfg.TexCacheLineB)
		dc.TexBytes = tt.bytes
		dc.TexHitRate = tt.hitRate
	} else {
		dc.TexHitRate = 1
	}
	rtBytes := covered * float64(rt.BytesPerPixel)
	if d.BlendEnable {
		rtBytes *= 2
	}
	dc.RTBytes = rtBytes * cfg.ColorCompression
	if d.DepthEnable && rt.HasDepth {
		dc.DepthBytes = dc.ShadedPixels * 4 * 2 * cfg.DepthCompression
	}
	s.finalize(&dc, d)
	return dc
}

func (s *naiveOracle) finalize(dc *gpu.DrawCost, d *trace.DrawCall) {
	cfg := &s.cfg
	dc.MemoryNs = dc.TrafficBytes() / cfg.BandwidthGBs()

	tc, tm := dc.ComputeNs, dc.MemoryNs
	dc.MemoryBound = false
	if tm > tc {
		dc.MemoryBound = true
		tc, tm = tm, tc
	}
	dc.OverheadNs = cfg.DrawOverheadNs
	dc.TotalNs = tc + cfg.OverlapBeta*tm + dc.OverheadNs
	if cfg.NoiseAmp > 0 {
		sigma := cfg.NoiseAmp * math.Sqrt(cfg.NoiseRefNs/dc.TotalNs)
		if sigma > 0.5 {
			sigma = 0.5
		}
		dc.TotalNs *= math.Exp(sigma * naiveNoiseZ(d))
	}
}

const naiveTexelBytes = 4

type naiveTraffic struct{ misses, bytes, hitRate float64 }

func naiveTexTraffic(samples, workingSetBytes float64, cacheBytes, lineB int) naiveTraffic {
	if samples <= 0 || workingSetBytes <= 0 {
		return naiveTraffic{hitRate: 1}
	}
	compulsory := workingSetBytes / float64(lineB)
	refetch := 1.0
	if ratio := workingSetBytes / float64(cacheBytes); ratio > 1 {
		refetch = math.Pow(ratio, 1.3)
	}
	misses := compulsory * refetch
	if misses > samples {
		misses = samples
	}
	return naiveTraffic{misses: misses, bytes: misses * float64(lineB), hitRate: 1 - misses/samples}
}

func naiveMax5(a, b, c, d, e float64) float64 {
	m := a
	for _, v := range [...]float64{b, c, d, e} {
		if v > m {
			m = v
		}
	}
	return m
}

func naiveNoiseZ(d *trace.DrawCall) float64 {
	h := uint64(d.VS)<<48 ^ uint64(d.PS)<<32 ^ uint64(d.MaterialID)<<16 ^
		uint64(d.VertexCount) ^ uint64(d.InstanceCount)<<56 ^
		math.Float64bits(d.CoverageFrac)
	var sum float64
	for i := 0; i < 4; i++ {
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		sum += float64(z>>11) / (1 << 53)
	}
	return (sum - 2) * math.Sqrt(3)
}

// BenchmarkOracle measures single-thread per-draw pricing throughput:
// one config pass over every draw of hotpathWorkload.
//
//	path=naive  frozen pre-flattening oracle (naiveOracle)
//	path=flat   gpu.Simulator over its per-workload resource tables
//
// Both arms must fold to the same total, bit for bit; `make
// bench-hotpath` records the speedup_vs_naive ratio in
// BENCH_hotpath.json beside the HotPath arms.
func BenchmarkOracle(b *testing.B) {
	w := hotpathWorkload(b)
	cfg := gpu.BaseConfig()
	sim, err := gpu.NewSimulator(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	naive := newNaiveOracle(cfg, w)
	arms := []struct {
		name   string
		drawNs func(*trace.DrawCall) float64
	}{
		{"naive", naive.drawNs},
		{"flat", sim.DrawNs},
	}
	totals := map[string]float64{}
	for _, arm := range arms {
		b.Run("path="+arm.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = 0
				for fi := range w.Frames {
					f := &w.Frames[fi]
					for di := range f.Draws {
						total += arm.drawNs(&f.Draws[di])
					}
				}
			}
			b.ReportMetric(float64(w.NumDraws())*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
			totals[arm.name] = total
		})
	}
	naiveTotal, ranNaive := totals["naive"]
	flatTotal, ranFlat := totals["flat"]
	if ranNaive && ranFlat && math.Float64bits(naiveTotal) != math.Float64bits(flatTotal) {
		b.Fatalf("flat oracle total %v differs from the frozen naive total %v", flatTotal, naiveTotal)
	}
}
