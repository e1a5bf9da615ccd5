package gpu

import (
	"context"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// DrawCost is the priced execution of one draw call on one config.
// All times are nanoseconds.
type DrawCost struct {
	// Core-domain stage cycles. The pipeline is throughput-limited by
	// its slowest stage, so CoreCycles is the max, not the sum.
	VSCycles     float64
	SetupCycles  float64
	RasterCycles float64
	PSCycles     float64
	ROPCycles    float64
	CoreCycles   float64

	// Memory-domain traffic in bytes.
	VertexBytes float64
	TexBytes    float64
	RTBytes     float64
	DepthBytes  float64

	ShadedPixels float64
	TexHitRate   float64

	ComputeNs  float64
	MemoryNs   float64
	OverheadNs float64
	TotalNs    float64

	// MemoryBound records which domain dominated this draw.
	MemoryBound bool
}

// TrafficBytes returns total DRAM traffic for the draw.
func (dc DrawCost) TrafficBytes() float64 { return dc.traffic() }

// traffic is TrafficBytes through a pointer: the value receiver would
// copy the whole DrawCost on every finalize.
func (dc *DrawCost) traffic() float64 {
	return dc.VertexBytes + dc.TexBytes + dc.RTBytes + dc.DepthBytes
}

// BottleneckStage names the core-domain stage that limits this draw's
// pipeline throughput ("vs", "setup", "raster", "ps", "rop").
func (dc DrawCost) BottleneckStage() string {
	best, name := dc.VSCycles, "vs"
	for _, c := range [...]struct {
		cycles float64
		name   string
	}{
		{dc.SetupCycles, "setup"},
		{dc.RasterCycles, "raster"},
		{dc.PSCycles, "ps"},
		{dc.ROPCycles, "rop"},
	} {
		if c.cycles > best {
			best, name = c.cycles, c.name
		}
	}
	return name
}

// Simulator prices draw calls of one workload on one config. It
// reduces the workload's shader programs and resource tables to flat
// per-workload terms once; pricing a draw is then O(1) slice-indexed
// arithmetic. A Simulator is safe for concurrent DrawCost calls after
// construction.
type Simulator struct {
	cfg Config
	w   *trace.Workload
	res resources

	// Per-config constants of the kernel, derived from cfg once.
	shaderRate    float64
	bandwidthGBs  float64
	texCacheBytes int
}

func newSimulator(cfg Config, w *trace.Workload, res resources) Simulator {
	return Simulator{
		cfg: cfg, w: w, res: res,
		shaderRate:    cfg.ShaderRate(),
		bandwidthGBs:  cfg.BandwidthGBs(),
		texCacheBytes: cfg.TexCacheKB * 1024,
	}
}

// NewSimulator validates the config and builds the config-independent
// resource terms (see resources). The workload is taken on trust: it
// was validated where it entered (see trace.Workload).
func NewSimulator(cfg Config, w *trace.Workload) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := newSimulator(cfg, w, newResources(w))
	return &sim, nil
}

// Config returns the simulated configuration.
func (s *Simulator) Config() Config { return s.cfg }

// WithConfig derives a simulator for another configuration over the
// same workload. The resource terms depend only on the workload, so
// they are shared with the receiver: deriving
// a config is O(1) where NewSimulator walks every draw. Grid sweeps
// construct one base simulator and derive the rest — without this, a
// warm result cache would still pay a full workload walk per config
// just to build the thing it never asks to price.
func (s *Simulator) WithConfig(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := newSimulator(cfg, s.w, s.res)
	return &sim, nil
}

// DrawCost prices one draw call. The draw must reference resources of
// the simulator's workload (subset draws qualify: subsets share their
// parent's resource tables). It panics on dangling references because
// those indicate a corrupted subset, not a runtime condition.
func (s *Simulator) DrawCost(d *trace.DrawCall) (dc DrawCost) {
	s.price(d, &dc)
	return dc
}

// price is the per-draw kernel behind DrawCost, DrawNs, DrawTotals,
// FrameNs and FrameDetailed: the draw's config-independent terms
// composed with this simulator's config. PriceGrid runs the same two
// halves, computing the terms and the noise variate once per draw for
// a whole batch of configs. It overwrites every field of *dc, so
// callers that keep a few fields do not copy the whole DrawCost per
// draw.
//
// It is finalize with the noise variate hashed late, after settle has
// issued its square root, in the order the fused kernel before the
// split used: the hash's integer work then overlaps the division
// chain. Hashing it first made this one-config path ~7% slower
// (interleaved passes over 32 bioshock1 frames, 2-core Xeon).
func (s *Simulator) price(d *trace.DrawCall, dc *DrawCost) {
	var t drawTerms
	samples, workingSet := s.res.drawTerms(d, &t)
	tt := texTraffic{HitRate: 1}
	if samples > 0 {
		tt = modelTexTraffic(samples, workingSet, s.texCacheBytes, s.cfg.TexCacheLineB)
	}
	s.priceTerms(&t, tt, dc)
	if sigma, noisy := s.settle(dc); noisy {
		dc.TotalNs *= math.Exp(sigma * drawNoiseZ(d))
	}
}

// drawTerms are the config-independent terms of one draw that the
// per-config half reads: everything the kernel derives from the draw
// and the workload's resource tables before it reads a Config. They
// live on the stack for one draw; there is deliberately no per-draw
// table of them (DESIGN §11). They fit in 64 bytes, so declaring one
// costs no zeroing call.
type drawTerms struct {
	verts, prims     float64
	shaded           float64 // covered pixels × overdraw
	vsWork, psWork   float64 // EU clocks: elements × clocks per element
	rtBytes          float64 // colour traffic before blending and compression
	blend, depthTest bool    // read-modify-write colour; Z against the target's depth buffer
}

// drawTerms fills t for d and returns the texture model's inputs: the
// samples the draw issues and its texture working set, capped by the
// samples. It is a method on the resource tables, not on a Simulator,
// so it cannot read a config. It panics on dangling references because
// those indicate a corrupted subset, not a runtime condition.
func (r *resources) drawTerms(d *trace.DrawCall, t *drawTerms) (samples, workingSet float64) {
	vsPC, ok := r.progs.Lookup(d.VS)
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown VS %d", d.VS))
	}
	psPC, ok := r.progs.Lookup(d.PS)
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown PS %d", d.PS))
	}
	rt, ok := r.rt(d.RT)
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown render target %d", d.RT))
	}

	t.verts = float64(d.TotalVertices())
	t.prims = float64(d.TotalPrimitives())
	covered := d.CoverageFrac * rt.pixels
	t.shaded = covered * d.Overdraw
	t.vsWork = t.verts * vsPC.clocksPerElem
	t.psWork = t.shaded * psPC.clocksPerElem
	t.rtBytes = covered * rt.bytesPerPixel
	t.blend = d.BlendEnable
	t.depthTest = d.DepthEnable && rt.hasDepth

	samples = t.shaded * psPC.texPerElem
	if samples > 0 {
		for _, tid := range d.Textures {
			if tid == 0 {
				continue
			}
			fp, ok := r.texFootprint(tid)
			if !ok {
				panic(fmt.Sprintf("gpu: draw references unknown texture %d", tid))
			}
			workingSet += fp
		}
		workingSet *= d.TexLocality
		// A draw cannot touch more unique texels than it samples: cap
		// the working set by the sample count (at ~1 texel per sample;
		// bilinear neighbours share cache lines). Without this cap,
		// small-coverage draws bound to large textures are charged for
		// footprints they never touch.
		if maxWS := samples * texelBytes; workingSet > maxWS {
			workingSet = maxWS
		}
	}
	return samples, workingSet
}

// priceTerms is the per-config half of the kernel up to finalize,
// which the caller runs next: the stage throughputs and the memory
// terms, on s's config. tt is the draw's texture traffic under s's
// cache geometry, which depends on the geometry alone, so a grid pass
// models it once per distinct geometry. Together with finalize it
// overwrites every field of *dc.
func (s *Simulator) priceTerms(t *drawTerms, tt texTraffic, dc *DrawCost) {
	cfg := &s.cfg
	dc.ShadedPixels = t.shaded
	ropPixels, rtBytes := t.shaded, t.rtBytes
	if t.blend {
		ropPixels *= 2 // read-modify-write
		rtBytes *= 2   // destination read + write
	}

	// Core domain: each stage is a throughput; the pipeline runs at the
	// rate of its slowest stage.
	rate := s.shaderRate
	dc.VSCycles = t.vsWork / rate
	dc.SetupCycles = t.prims / cfg.PrimSetupRate
	dc.RasterCycles = t.shaded / cfg.RasterRate
	dc.PSCycles = t.psWork / rate
	dc.ROPCycles = ropPixels / cfg.ROPRate
	dc.CoreCycles = max5(dc.VSCycles, dc.SetupCycles, dc.RasterCycles, dc.PSCycles, dc.ROPCycles)
	dc.ComputeNs = dc.CoreCycles / cfg.CoreClockGHz

	// Memory domain.
	dc.VertexBytes = t.verts * float64(cfg.VertexSizeB)
	dc.TexBytes = tt.Bytes
	dc.TexHitRate = tt.HitRate
	dc.RTBytes = rtBytes * cfg.ColorCompression
	dc.DepthBytes = 0
	if t.depthTest {
		dc.DepthBytes = t.shaded * 4 * 2 * cfg.DepthCompression // 32-bit Z read + write
	}
}

// finalize derives MemoryNs and TotalNs from the traffic fields and
// ComputeNs — shared by the grid pass and the shared-cache detailed
// path (which overrides TexBytes with measured traffic before
// re-finalizing). noiseZ is the draw's drawNoiseZ.
func (s *Simulator) finalize(dc *DrawCost, noiseZ float64) {
	if sigma, noisy := s.settle(dc); noisy {
		dc.TotalNs *= math.Exp(sigma * noiseZ)
	}
}

// settle is finalize up to the noise term: it derives MemoryNs and the
// noise-free TotalNs, and returns the sigma of the draw's lognormal
// noise factor; noisy is false when the config has no noise term.
func (s *Simulator) settle(dc *DrawCost) (sigma float64, noisy bool) {
	cfg := &s.cfg
	dc.MemoryNs = dc.traffic() / s.bandwidthGBs // GB/s == bytes/ns

	// Bottleneck combination with partial overlap.
	tc, tm := dc.ComputeNs, dc.MemoryNs
	dc.MemoryBound = false
	if tm > tc {
		dc.MemoryBound = true
		tc, tm = tm, tc
	}
	dc.OverheadNs = cfg.DrawOverheadNs
	dc.TotalNs = tc + cfg.OverlapBeta*tm + dc.OverheadNs
	if cfg.NoiseAmp <= 0 {
		return 0, false
	}
	sigma = cfg.NoiseAmp * math.Sqrt(cfg.NoiseRefNs/dc.TotalNs)
	if sigma > 0.5 {
		sigma = 0.5
	}
	return sigma, true
}

// drawNoiseZ returns an approximately standard-normal variate hashed
// from the draw's content (sum of four content-hashed uniforms). It
// depends only on the draw, never on the config, so a draw carries the
// same disturbance direction across an architecture sweep.
func drawNoiseZ(d *trace.DrawCall) float64 {
	h := uint64(d.VS)<<48 ^ uint64(d.PS)<<32 ^ uint64(d.MaterialID)<<16 ^
		uint64(d.VertexCount) ^ uint64(d.InstanceCount)<<56 ^
		math.Float64bits(d.CoverageFrac)
	var sum float64
	for i := 0; i < 4; i++ {
		// SplitMix64 steps for avalanche.
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		sum += float64(z>>11) / (1 << 53)
	}
	// Irwin-Hall(4): mean 2, variance 1/3 -> standardize.
	return (sum - 2) * math.Sqrt(3)
}

// DrawNs is DrawCost reduced to total nanoseconds — the cost oracle
// signature the rest of the pipeline consumes.
func (s *Simulator) DrawNs(d *trace.DrawCall) float64 {
	var dc DrawCost
	s.price(d, &dc)
	return dc.TotalNs
}

// FrameNs prices a whole frame: the sum of its draw times. Draws
// serialize at frame granularity in this model; intra-draw parallelism
// is already inside DrawCost.
func (s *Simulator) FrameNs(f *trace.Frame) float64 {
	var total float64
	for i := range f.Draws {
		total += s.DrawNs(&f.Draws[i])
	}
	return total
}

// RunResult is the priced execution of a full workload.
type RunResult struct {
	ConfigName string
	FrameNs    []float64
	TotalNs    float64
}

// FPS returns average frames per second implied by the run.
func (r RunResult) FPS() float64 {
	if r.TotalNs == 0 || len(r.FrameNs) == 0 {
		return 0
	}
	return float64(len(r.FrameNs)) / (r.TotalNs * 1e-9)
}

// RunParallel prices every frame across at most workers goroutines
// (<= 0 selects GOMAXPROCS), checking for cancellation between frames.
// Frames are priced independently — DrawCost is read-only on the
// simulator — and TotalNs is folded over the per-frame times in frame
// order, so the result is bit-identical at any worker count. Sweeps
// that already parallelize across configurations should pass
// workers = 1 inside each task rather than nesting pools.
func (s *Simulator) RunParallel(ctx context.Context, workers int) (RunResult, error) {
	frameNs, err := parallel.Map(ctx, workers, len(s.w.Frames), func(_ context.Context, i int) (float64, error) {
		return s.FrameNs(&s.w.Frames[i]), nil
	})
	if err != nil {
		return RunResult{}, fmt.Errorf("gpu: parallel run: %w", err)
	}
	res := RunResult{ConfigName: s.cfg.Name, FrameNs: frameNs}
	for _, t := range frameNs {
		res.TotalNs += t
	}
	return res, nil
}

func max5(a, b, c, d, e float64) float64 {
	m := a
	for _, v := range [...]float64{b, c, d, e} {
		if v > m {
			m = v
		}
	}
	return m
}
