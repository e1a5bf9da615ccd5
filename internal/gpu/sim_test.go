package gpu

import (
	"context"
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracetest"
)

func newSim(t *testing.T, cfg Config) (*Simulator, *trace.Workload) {
	t.Helper()
	w := tracetest.Tiny()
	s, err := NewSimulator(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

// runAll prices every frame of the simulator's workload.
func runAll(t *testing.T, s *Simulator) RunResult {
	t.Helper()
	res, err := s.RunParallel(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewSimulatorValidates(t *testing.T) {
	w := tracetest.Tiny()
	bad := BaseConfig()
	bad.CoreClockGHz = 0
	if _, err := NewSimulator(bad, w); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDrawCostPositiveAndConsistent(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			dc := s.DrawCost(&w.Frames[fi].Draws[di])
			if dc.TotalNs <= 0 {
				t.Fatalf("draw %d/%d: non-positive cost %v", fi, di, dc.TotalNs)
			}
			if dc.TotalNs < dc.OverheadNs {
				t.Fatalf("total %v below overhead %v", dc.TotalNs, dc.OverheadNs)
			}
			// CoreCycles is the max of the stage cycles.
			maxStage := math.Max(dc.VSCycles, math.Max(dc.SetupCycles,
				math.Max(dc.RasterCycles, math.Max(dc.PSCycles, dc.ROPCycles))))
			if dc.CoreCycles != maxStage {
				t.Fatalf("CoreCycles %v != max stage %v", dc.CoreCycles, maxStage)
			}
			if dc.TexHitRate < 0 || dc.TexHitRate > 1 {
				t.Fatalf("hit rate %v", dc.TexHitRate)
			}
			if dc.TrafficBytes() < 0 {
				t.Fatal("negative traffic")
			}
		}
	}
}

func TestDrawCostDeterministic(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	d := &w.Frames[0].Draws[0]
	a, b := s.DrawCost(d), s.DrawCost(d)
	if a != b {
		t.Error("DrawCost not deterministic")
	}
}

func TestDrawCostScalesWithWork(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	small := w.Frames[0].Draws[0]
	big := small
	big.VertexCount *= 8
	big.CoverageFrac = math.Min(1, big.CoverageFrac*2)
	if s.DrawCost(&big).TotalNs <= s.DrawCost(&small).TotalNs {
		t.Error("more work did not cost more")
	}
}

func TestBlendAndDepthCostMore(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	d := w.Frames[0].Draws[0]
	d.BlendEnable, d.DepthEnable = false, false
	base := s.DrawCost(&d)
	d.BlendEnable = true
	blend := s.DrawCost(&d)
	if blend.RTBytes <= base.RTBytes {
		t.Error("blending did not increase RT traffic")
	}
	d.BlendEnable, d.DepthEnable = false, true
	depth := s.DrawCost(&d)
	if depth.DepthBytes <= 0 {
		t.Error("depth enable produced no Z traffic")
	}
	if base.DepthBytes != 0 {
		t.Error("depth-off draw has Z traffic")
	}
}

func TestCoreClockScalingHelpsComputeBound(t *testing.T) {
	// A compute-bound draw (heavy shader, tiny textures) should speed
	// up nearly linearly with core clock; a memory-bound draw should
	// barely move.
	w := tracetest.Tiny()
	slow, err := NewSimulator(BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewSimulator(BaseConfig().WithCoreClock(2.0), w)
	if err != nil {
		t.Fatal(err)
	}
	var computeBound, memoryBound *trace.DrawCall
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			d := &w.Frames[fi].Draws[di]
			dc := slow.DrawCost(d)
			if dc.MemoryBound && memoryBound == nil {
				memoryBound = d
			}
			if !dc.MemoryBound && computeBound == nil {
				computeBound = d
			}
		}
	}
	if computeBound == nil {
		t.Skip("fixture has no compute-bound draw")
	}
	slowC, fastC := slow.DrawCost(computeBound), fast.DrawCost(computeBound)
	speedup := slowC.TotalNs / fastC.TotalNs
	if speedup < 1.2 {
		t.Errorf("compute-bound speedup at 2x core clock = %v, want > 1.2", speedup)
	}
	if memoryBound != nil {
		slowM, fastM := slow.DrawCost(memoryBound), fast.DrawCost(memoryBound)
		memSpeedup := slowM.TotalNs / fastM.TotalNs
		if memSpeedup > speedup {
			t.Errorf("memory-bound draw sped up more (%v) than compute-bound (%v)", memSpeedup, speedup)
		}
	}
}

func TestMemClockScalingHelpsMemoryTime(t *testing.T) {
	w := tracetest.Tiny()
	base, _ := NewSimulator(BaseConfig(), w)
	fast, _ := NewSimulator(BaseConfig().WithMemClock(2.0), w)
	d := &w.Frames[0].Draws[0]
	if got, want := fast.DrawCost(d).MemoryNs, base.DrawCost(d).MemoryNs/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("2x mem clock: MemoryNs = %v, want %v", got, want)
	}
}

func TestFrameAndRunAggregation(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	var manual float64
	for di := range w.Frames[0].Draws {
		manual += s.DrawNs(&w.Frames[0].Draws[di])
	}
	if got := s.FrameNs(&w.Frames[0]); math.Abs(got-manual) > 1e-6 {
		t.Errorf("FrameNs = %v, manual sum = %v", got, manual)
	}
	res := runAll(t, s)
	if len(res.FrameNs) != w.NumFrames() {
		t.Fatalf("run frames = %d", len(res.FrameNs))
	}
	var total float64
	for _, f := range res.FrameNs {
		total += f
	}
	if math.Abs(total-res.TotalNs) > 1e-6 {
		t.Errorf("TotalNs %v != frame sum %v", res.TotalNs, total)
	}
	if res.FPS() <= 0 {
		t.Error("FPS not positive")
	}
	if res.ConfigName != "base" {
		t.Errorf("config name = %q", res.ConfigName)
	}
}

func TestRunResultFPSEmpty(t *testing.T) {
	var r RunResult
	if r.FPS() != 0 {
		t.Error("empty run FPS should be 0")
	}
}

func TestDrawCostPanicsOnDanglingRefs(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	d := w.Frames[0].Draws[0]
	d.VS = 999
	assertPanics(t, "unknown VS", func() { s.DrawCost(&d) })
	d = w.Frames[0].Draws[0]
	d.PS = 999
	assertPanics(t, "unknown PS", func() { s.DrawCost(&d) })
	d = w.Frames[0].Draws[0]
	d.RT = 99
	assertPanics(t, "bad RT", func() { s.DrawCost(&d) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestBiggerCacheNeverSlower(t *testing.T) {
	w := tracetest.Tiny()
	small := BaseConfig()
	small.TexCacheKB = 32
	big := BaseConfig()
	big.TexCacheKB = 2048
	ss, _ := NewSimulator(small, w)
	sb, _ := NewSimulator(big, w)
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			d := &w.Frames[fi].Draws[di]
			if sb.DrawCost(d).TexBytes > ss.DrawCost(d).TexBytes+1e-9 {
				t.Fatalf("bigger cache produced more texture traffic for draw %d/%d", fi, di)
			}
		}
	}
}

func TestDetailedTexTraffic(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	texDraw := &w.Frames[0].Draws[0] // binds ps.textured
	res, err := s.DetailedTexTraffic(texDraw, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("textured draw produced no samples")
	}
	if res.HitRate <= 0 || res.HitRate >= 1 {
		t.Errorf("hit rate = %v, want in (0, 1)", res.HitRate)
	}
	if res.DRAMBytes <= 0 {
		t.Error("no traffic measured")
	}
	// Deterministic.
	res2, _ := s.DetailedTexTraffic(texDraw, 50000)
	if res != res2 {
		t.Error("detailed replay not deterministic")
	}
	// No-texture draw.
	flat := &w.Frames[0].Draws[2]
	resFlat, err := s.DetailedTexTraffic(flat, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if resFlat.Samples != 0 || resFlat.HitRate != 1 {
		t.Errorf("flat draw result = %+v", resFlat)
	}
	if _, err := s.DetailedTexTraffic(texDraw, 0); err == nil {
		t.Error("zero cap accepted")
	}
}

func TestDetailedAgreesWithAnalyticDirection(t *testing.T) {
	// Across two cache sizes, detailed and analytic must agree on which
	// config sees the higher hit rate.
	w := tracetest.Tiny()
	d := &w.Frames[0].Draws[0]
	small := BaseConfig()
	small.TexCacheKB = 16
	big := BaseConfig()
	big.TexCacheKB = 4096
	ssim, _ := NewSimulator(small, w)
	bsim, _ := NewSimulator(big, w)
	sa, ba := ssim.DrawCost(d).TexHitRate, bsim.DrawCost(d).TexHitRate
	sd, _ := ssim.DetailedTexTraffic(d, 100000)
	bd, _ := bsim.DetailedTexTraffic(d, 100000)
	if (ba >= sa) != (bd.HitRate >= sd.HitRate-0.02) {
		t.Errorf("analytic (%v->%v) and detailed (%v->%v) disagree on cache scaling",
			sa, ba, sd.HitRate, bd.HitRate)
	}
}

// TestWithConfigMatchesNewSimulator: a derived simulator must price
// every draw bit-identically to one built from scratch on the same
// config — WithConfig only skips redundant validation and shader
// analysis, never changes costs.
func TestWithConfigMatchesNewSimulator(t *testing.T) {
	base, w := newSim(t, BaseConfig())
	cfg := BaseConfig().WithCoreClock(1.6)
	derived, err := base.WithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSimulator(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if derived.Config() != cfg {
		t.Fatalf("derived config = %+v, want %+v", derived.Config(), cfg)
	}
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			d := &w.Frames[fi].Draws[di]
			if a, b := derived.DrawNs(d), fresh.DrawNs(d); a != b {
				t.Fatalf("frame %d draw %d: derived %v, fresh %v", fi, di, a, b)
			}
		}
	}
	// The base simulator is untouched.
	if base.Config() != BaseConfig() {
		t.Fatal("WithConfig mutated the receiver")
	}
}

func TestWithConfigRejectsInvalid(t *testing.T) {
	base, _ := newSim(t, BaseConfig())
	bad := BaseConfig()
	bad.NumEUs = 0
	if _, err := base.WithConfig(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}
