package gpu

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dcmath"
	"repro/internal/shader"
	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// naiveSim is the frozen pricing oracle from before the per-workload
// resource tables: shader costs in a map keyed by id, and the render
// target and every bound texture's mip-chain footprint resolved from
// the workload on each draw. Its DrawCost, finalize, frameDetailed and
// replayShared are verbatim copies of the code the tables replaced;
// the live oracle must reproduce them bit for bit.
type naiveSim struct {
	cfg   Config
	w     *trace.Workload
	progs map[shader.ID]programCost
}

func newNaiveSim(cfg Config, w *trace.Workload) *naiveSim {
	progs := make(map[shader.ID]programCost, w.Shaders.Len())
	for _, p := range w.Shaders.Programs() {
		progs[p.ID] = analyzeProgram(p)
	}
	return &naiveSim{cfg: cfg, w: w, progs: progs}
}

func (s *naiveSim) DrawNs(d *trace.DrawCall) float64 { return s.DrawCost(d).TotalNs }

func (s *naiveSim) DrawCost(d *trace.DrawCall) DrawCost {
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

	var dc DrawCost
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
	dc.CoreCycles = max5(dc.VSCycles, dc.SetupCycles, dc.RasterCycles, dc.PSCycles, dc.ROPCycles)
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
		if maxWS := samples * texelBytes; ws > maxWS {
			ws = maxWS
		}
		tt := modelTexTraffic(samples, ws, cfg.TexCacheKB*1024, cfg.TexCacheLineB)
		dc.TexBytes = tt.Bytes
		dc.TexHitRate = tt.HitRate
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

func (s *naiveSim) finalize(dc *DrawCost, d *trace.DrawCall) {
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
		dc.TotalNs *= math.Exp(sigma * drawNoiseZ(d))
	}
}

func (s *naiveSim) frameDetailed(f *trace.Frame, maxSamplesPerDraw int) (DetailedFrameResult, error) {
	cache, err := NewTexCache(s.cfg.TexCacheKB, s.cfg.TexCacheLineB, s.cfg.TexCacheWays)
	if err != nil {
		return DetailedFrameResult{}, err
	}
	res := DetailedFrameResult{DrawNs: make([]float64, len(f.Draws))}
	const regionBytes = 256 << 20
	for di := range f.Draws {
		d := &f.Draws[di]
		dc := s.DrawCost(d)
		res.ContextFreeNs += dc.TotalNs

		psPC := s.progs[d.PS]
		samples := dc.ShadedPixels * psPC.texPerElem
		if samples > 0 {
			measured, err := s.replayShared(cache, d, samples, maxSamplesPerDraw, regionBytes)
			if err != nil {
				return DetailedFrameResult{}, err
			}
			dc.TexBytes = measured
			s.finalize(&dc, d)
		}
		res.DrawNs[di] = dc.TotalNs
		res.TotalNs += dc.TotalNs
	}
	res.SharedHitRate = cache.HitRate()
	return res, nil
}

func (s *naiveSim) replayShared(cache *TexCache, d *trace.DrawCall, samples float64, maxSamples int, regionBytes uint64) (float64, error) {
	type region struct {
		base   uint64
		texels uint64
	}
	var regions []region
	var totalTexels uint64
	for _, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		tex, err := s.w.Texture(tid)
		if err != nil {
			return 0, err
		}
		touched := float64(tex.Footprint()) * d.TexLocality
		texels := uint64(touched / texelBytes)
		if texels == 0 {
			continue
		}
		regions = append(regions, region{base: uint64(tid) * regionBytes, texels: texels})
		totalTexels += texels
	}
	if len(regions) == 0 {
		return 0, nil
	}
	if maxT := uint64(samples); totalTexels > maxT && maxT > 0 {
		scale := float64(maxT) / float64(totalTexels)
		totalTexels = 0
		for i := range regions {
			regions[i].texels = uint64(float64(regions[i].texels) * scale)
			if regions[i].texels == 0 {
				regions[i].texels = 1
			}
			totalTexels += regions[i].texels
		}
	}

	replay := int(samples)
	scale := 1.0
	if replay > maxSamples {
		scale = samples / float64(maxSamples)
		replay = maxSamples
	}
	seed := uint64(d.VS)<<40 ^ uint64(d.PS)<<20 ^ uint64(d.VertexCount) ^ uint64(d.MaterialID)<<8
	rng := dcmath.NewRNG(seed)

	missesBefore := cache.Misses()
	ri := 0
	pos := uint64(0)
	for i := 0; i < replay; i++ {
		if !rng.Bool(sequentialRunProb) {
			ri = rng.Intn(len(regions))
			pos = rng.Uint64() % regions[ri].texels
		}
		r := regions[ri]
		cache.Access(r.base + (pos%r.texels)*texelBytes)
		pos++
	}
	return float64(cache.Misses()-missesBefore) * float64(s.cfg.TexCacheLineB) * scale, nil
}

// oracleConfigs are the configs the flat oracle is held bit-exact on:
// the 32-config pathfinding grid (8 core x 4 memory clocks), the E8
// core-clock sweep, a noise-free config and a texture cache small
// enough that working sets overflow it (the math.Pow capacity branch).
func oracleConfigs() []Config {
	var cfgs []Config
	for _, cc := range []float64{0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0} {
		for _, mc := range []float64{0.6, 0.8, 1.0, 1.2} {
			cfgs = append(cfgs, BaseConfig().WithCoreClock(cc).WithMemClock(mc))
		}
	}
	for _, cc := range []float64{0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0} {
		cfgs = append(cfgs, BaseConfig().WithCoreClock(cc))
	}
	quiet := BaseConfig()
	quiet.Name, quiet.NoiseAmp = "quiet", 0
	cfgs = append(cfgs, quiet, smallCacheConfig())
	return cfgs
}

func smallCacheConfig() Config {
	c := BaseConfig()
	c.Name, c.TexCacheKB = "tinycache", 1
	return c
}

// oracleWorkloads returns a short cut of every synth profile: one
// frame per script segment, so every scene's materials are priced.
func oracleWorkloads(t *testing.T) []*trace.Workload {
	t.Helper()
	var ws []*trace.Workload
	for _, p := range []synth.Profile{synth.Bioshock1Profile(), synth.Bioshock2Profile(), synth.BioshockInfiniteProfile()} {
		for i := range p.Script {
			p.Script[i].Frames = 1
		}
		p.Frames = len(p.Script)
		w, err := tracetest.CachedWorkload(p, 42)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// costBitsDiff names the first DrawCost field whose bits differ
// between a and b, or returns "" when they are identical.
func costBitsDiff(a, b DrawCost) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return fmt.Sprintf("%s: %v != %v", va.Type().Field(i).Name, fa.Float(), fb.Float())
			}
		case reflect.Bool:
			if fa.Bool() != fb.Bool() {
				return fmt.Sprintf("%s: %v != %v", va.Type().Field(i).Name, fa.Bool(), fb.Bool())
			}
		default:
			panic("costBitsDiff: unhandled DrawCost field kind " + fa.Kind().String())
		}
	}
	return ""
}

// assertDrawsMatchNaive prices draws on s and on the naive oracle over
// the same config and workload and fails on the first bit difference.
func assertDrawsMatchNaive(t *testing.T, s *Simulator, naive *naiveSim, draws []trace.DrawCall, where string) {
	t.Helper()
	for di := range draws {
		d := &draws[di]
		if diff := costBitsDiff(s.DrawCost(d), naive.DrawCost(d)); diff != "" {
			t.Fatalf("%s config %s draw %d: %s", where, s.cfg.Name, di, diff)
		}
	}
}

// exceedsCache reports whether d's texture working set overflows the
// config's cache, i.e. modelTexTraffic takes its capacity branch.
func (s *naiveSim) exceedsCache(d *trace.DrawCall) bool {
	samples := s.DrawCost(d).ShadedPixels * s.progs[d.PS].texPerElem
	var ws float64
	for _, tid := range d.Textures {
		if tid != 0 {
			tex, _ := s.w.Texture(tid)
			ws += float64(tex.Footprint())
		}
	}
	ws = math.Min(ws*d.TexLocality, samples*texelBytes)
	return samples > 0 && ws > float64(s.cfg.TexCacheKB*1024)
}

func TestDrawCostMatchesNaiveOracle(t *testing.T) {
	for _, w := range oracleWorkloads(t) {
		base, err := NewSimulator(BaseConfig(), w)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range oracleConfigs() {
			s, err := base.WithConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			naive := newNaiveSim(cfg, w)
			for fi := range w.Frames {
				assertDrawsMatchNaive(t, s, naive, w.Frames[fi].Draws, fmt.Sprintf("%s frame %d", w.Name, fi))
			}
		}
		small, overflow := newNaiveSim(smallCacheConfig(), w), 0
		for fi := range w.Frames {
			for di := range w.Frames[fi].Draws {
				if small.exceedsCache(&w.Frames[fi].Draws[di]) {
					overflow++
				}
			}
		}
		if overflow == 0 {
			t.Errorf("%s: no draw overflows the %d KB cache; the capacity branch is untested", w.Name, small.cfg.TexCacheKB)
		}
	}
}

// The batch path must reproduce the frozen oracle too: PriceGrid over
// every oracle config, folded config by config from the naive
// DrawCost, bit for bit, at one and at several workers.
func TestPriceGridMatchesNaiveOracle(t *testing.T) {
	cfgs := oracleConfigs()
	for _, w := range oracleWorkloads(t) {
		base, err := NewSimulator(BaseConfig(), w)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := base.PriceGrid(context.Background(), cfgs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				if diff := runBitsDiff(got[i], newNaiveSim(cfg, w).run()); diff != "" {
					t.Fatalf("%s workers %d config %s: %s", w.Name, workers, cfg.Name, diff)
				}
			}
		}
	}
}

// run prices the whole workload one draw at a time, folding like
// Simulator.RunTotals.
func (s *naiveSim) run() PricedRun {
	run := PricedRun{FrameNs: make([]float64, len(s.w.Frames))}
	for fi := range s.w.Frames {
		f := &s.w.Frames[fi]
		var frameNs float64
		for di := range f.Draws {
			dc := s.DrawCost(&f.Draws[di])
			frameNs += dc.TotalNs
			run.Totals.Add(dc, 1)
		}
		run.FrameNs[fi] = frameNs
		run.TotalNs += frameNs
	}
	return run
}

// Subset draws are copies priced against the parent's resources, not
// positions in the parent: they must price identically too, draw by
// draw and folded through the subset's weights.
func TestSubsetDrawsMatchNaiveOracle(t *testing.T) {
	p := synth.Bioshock1Profile()
	p.Name = "oraclesubset"
	p.Frames = 48
	p.MaterialsPerScene = 40
	p.SharedMaterials = 8
	p.Textures = 80
	p.VSPool = 6
	p.PSPool = 16
	w, err := tracetest.CachedWorkload(p, 41)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSimulator(BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range oracleConfigs() {
		s, err := base.WithConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		naive := newNaiveSim(cfg, w)
		for fi := range sub.Frames {
			assertDrawsMatchNaive(t, s, naive, sub.Frames[fi].Draws, fmt.Sprintf("subset frame %d", fi))
		}
		if got, want := sub.EstimateParentNs(s), sub.EstimateParentNs(naive); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("config %s: subset estimate %v, naive %v", cfg.Name, got, want)
		}
	}
}

func TestFrameDetailedMatchesNaiveOracle(t *testing.T) {
	w := oracleWorkloads(t)[0]
	for _, cfg := range []Config{BaseConfig(), smallCacheConfig()} {
		s, err := NewSimulator(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		naive := newNaiveSim(cfg, w)
		for fi := range w.Frames[:2] {
			got, err := s.FrameDetailed(&w.Frames[fi], 2000)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.frameDetailed(&w.Frames[fi], 2000)
			if err != nil {
				t.Fatal(err)
			}
			same := len(got.DrawNs) == len(want.DrawNs)
			for i := 0; same && i < len(got.DrawNs); i++ {
				same = math.Float64bits(got.DrawNs[i]) == math.Float64bits(want.DrawNs[i])
			}
			for _, pair := range [][2]float64{
				{got.TotalNs, want.TotalNs}, {got.ContextFreeNs, want.ContextFreeNs}, {got.SharedHitRate, want.SharedHitRate},
			} {
				same = same && math.Float64bits(pair[0]) == math.Float64bits(pair[1])
			}
			if !same {
				t.Fatalf("config %s frame %d: FrameDetailed differs from the naive oracle", cfg.Name, fi)
			}
		}
	}
}

func TestSparseShaderIDsPriceLikeNaive(t *testing.T) {
	w := tracetest.TinySparseIDs()
	for _, cfg := range oracleConfigs() {
		s, err := NewSimulator(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		naive := newNaiveSim(cfg, w)
		for fi := range w.Frames {
			assertDrawsMatchNaive(t, s, naive, w.Frames[fi].Draws, fmt.Sprintf("frame %d", fi))
		}
	}

	// The program table is sized by the program count, not by the
	// largest id: a table indexed by id would need 2^32 slots here.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewSimulator(BaseConfig(), w)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("NewSimulator allocated %d bytes for %d programs", grew, w.Shaders.Len())
	}
}

// A VS or PS id above every registered id is a dangling reference: it
// must panic, never price as a zero-cost program.
func TestDrawCostPanicsOnIDsAboveRegistry(t *testing.T) {
	for name, w := range map[string]*trace.Workload{"dense": tracetest.Tiny(), "sparse": tracetest.TinySparseIDs()} {
		s, err := NewSimulator(BaseConfig(), w)
		if err != nil {
			t.Fatal(err)
		}
		var maxID shader.ID
		for _, id := range w.Shaders.IDs() {
			maxID = max(maxID, id)
		}
		for _, id := range []shader.ID{0, maxID + 1, maxID + 2, maxID/2 + 3, math.MaxUint32 - 1} {
			if _, err := w.Shaders.Lookup(id); err == nil {
				continue // registered in this workload: not dangling
			}
			d := w.Frames[0].Draws[0]
			d.VS = id
			assertPanics(t, fmt.Sprintf("%s VS %d", name, id), func() { s.DrawCost(&d) })
			d = w.Frames[0].Draws[0]
			d.PS = id
			assertPanics(t, fmt.Sprintf("%s PS %d", name, id), func() { s.DrawCost(&d) })
		}
		d := w.Frames[0].Draws[0]
		d.Textures = []trace.TextureID{trace.TextureID(len(w.Textures) + 1)}
		assertPanics(t, name+" texture", func() { s.DrawCost(&d) })
		d = w.Frames[0].Draws[0]
		d.RT = 0
		assertPanics(t, name+" RT 0", func() { s.DrawCost(&d) })
	}
}
