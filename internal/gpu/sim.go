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

func newSimulator(cfg Config, w *trace.Workload, res resources) *Simulator {
	return &Simulator{
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
	return newSimulator(cfg, w, newResources(w)), nil
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
	return newSimulator(cfg, s.w, s.res), nil
}

// DrawCost prices one draw call. The draw must reference resources of
// the simulator's workload (subset draws qualify: subsets share their
// parent's resource tables). It panics on dangling references because
// those indicate a corrupted subset, not a runtime condition.
func (s *Simulator) DrawCost(d *trace.DrawCall) (dc DrawCost) {
	s.price(d, &dc)
	return dc
}

// price is the per-draw kernel behind DrawCost, DrawNs, DrawTotals and
// FrameNs. It fills a zero *dc in place, so callers that keep a few
// fields do not copy the whole DrawCost per draw.
func (s *Simulator) price(d *trace.DrawCall, dc *DrawCost) {
	cfg := &s.cfg
	vsPC, ok := s.res.progs.Lookup(d.VS)
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown VS %d", d.VS))
	}
	psPC, ok := s.res.progs.Lookup(d.PS)
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown PS %d", d.PS))
	}
	rt, ok := s.res.rt(d.RT)
	if !ok {
		panic(fmt.Sprintf("gpu: draw references unknown render target %d", d.RT))
	}

	verts := float64(d.TotalVertices())
	prims := float64(d.TotalPrimitives())
	covered := d.CoverageFrac * rt.pixels
	dc.ShadedPixels = covered * d.Overdraw

	// Core domain: each stage is a throughput; the pipeline runs at the
	// rate of its slowest stage.
	rate := s.shaderRate
	dc.VSCycles = verts * vsPC.clocksPerElem / rate
	dc.SetupCycles = prims / cfg.PrimSetupRate
	dc.RasterCycles = dc.ShadedPixels / cfg.RasterRate
	dc.PSCycles = dc.ShadedPixels * psPC.clocksPerElem / rate
	ropPixels := dc.ShadedPixels
	if d.BlendEnable {
		ropPixels *= 2 // read-modify-write
	}
	dc.ROPCycles = ropPixels / cfg.ROPRate
	dc.CoreCycles = max5(dc.VSCycles, dc.SetupCycles, dc.RasterCycles, dc.PSCycles, dc.ROPCycles)
	dc.ComputeNs = dc.CoreCycles / cfg.CoreClockGHz

	// Memory domain.
	dc.VertexBytes = verts * float64(cfg.VertexSizeB)
	samples := dc.ShadedPixels * psPC.texPerElem
	if samples > 0 {
		var ws float64
		for _, tid := range d.Textures {
			if tid == 0 {
				continue
			}
			fp, ok := s.res.texFootprint(tid)
			if !ok {
				panic(fmt.Sprintf("gpu: draw references unknown texture %d", tid))
			}
			ws += fp
		}
		ws *= d.TexLocality
		// A draw cannot touch more unique texels than it samples: cap
		// the working set by the sample count (at ~1 texel per sample;
		// bilinear neighbours share cache lines). Without this cap,
		// small-coverage draws bound to large textures are charged for
		// footprints they never touch.
		if maxWS := samples * texelBytes; ws > maxWS {
			ws = maxWS
		}
		tt := modelTexTraffic(samples, ws, s.texCacheBytes, cfg.TexCacheLineB)
		dc.TexBytes = tt.Bytes
		dc.TexHitRate = tt.HitRate
	} else {
		dc.TexHitRate = 1
	}
	rtBytes := covered * rt.bytesPerPixel
	if d.BlendEnable {
		rtBytes *= 2 // destination read + write
	}
	dc.RTBytes = rtBytes * cfg.ColorCompression
	if d.DepthEnable && rt.hasDepth {
		dc.DepthBytes = dc.ShadedPixels * 4 * 2 * cfg.DepthCompression // 32-bit Z read + write
	}
	s.finalize(dc, d)
}

// finalize derives MemoryNs and TotalNs from the traffic fields and
// ComputeNs — shared by the analytic path and the shared-cache
// detailed path (which overrides TexBytes with measured traffic before
// re-finalizing).
func (s *Simulator) finalize(dc *DrawCost, d *trace.DrawCall) {
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
	if cfg.NoiseAmp > 0 {
		sigma := cfg.NoiseAmp * math.Sqrt(cfg.NoiseRefNs/dc.TotalNs)
		if sigma > 0.5 {
			sigma = 0.5
		}
		dc.TotalNs *= math.Exp(sigma * drawNoiseZ(d))
	}
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
