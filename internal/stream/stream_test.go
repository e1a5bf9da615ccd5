package stream

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

func streamGame(t *testing.T) *trace.Workload {
	t.Helper()
	p := synth.Bioshock1Profile()
	p.Name = "streamtest"
	p.Frames = 64
	p.MaterialsPerScene = 40
	p.SharedMaterials = 8
	p.Textures = 80
	p.VSPool = 6
	p.PSPool = 16
	w, err := tracetest.CachedWorkload(p, 61)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// shellOf strips frames, as a StreamReader would present the workload.
func shellOf(t *testing.T, w *trace.Workload) *trace.Workload {
	t.Helper()
	shell, err := trace.HeaderOf(w).Shell()
	if err != nil {
		t.Fatal(err)
	}
	return shell
}

func TestStreamMatchesBatchBuild(t *testing.T) {
	w := streamGame(t)

	batch, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(shellOf(t, w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Frames {
		if err := s.Push(w.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if res.NumPhases != batch.Detection.NumPhases {
		t.Fatalf("phases: stream %d, batch %d", res.NumPhases, batch.Detection.NumPhases)
	}
	if len(res.Frames) != len(batch.Frames) {
		t.Fatalf("frames: stream %d, batch %d", len(res.Frames), len(batch.Frames))
	}
	if res.ParentFrames != w.NumFrames() || res.ParentDraws != w.NumDraws() {
		t.Errorf("accounting: %d frames / %d draws", res.ParentFrames, res.ParentDraws)
	}
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	a := res.EstimateParentNs(sim)
	b := batch.EstimateParentNs(sim)
	if math.Abs(a-b)/b > 1e-9 {
		t.Errorf("estimates differ: stream %v, batch %v", a, b)
	}
	for i := range res.Frames {
		if res.Frames[i].ParentFrame != batch.Frames[i].ParentFrame {
			t.Errorf("frame %d: parent %d vs %d", i, res.Frames[i].ParentFrame, batch.Frames[i].ParentFrame)
		}
		if res.Frames[i].PhaseScale != batch.Frames[i].PhaseScale {
			t.Errorf("frame %d: scale %v vs %v", i, res.Frames[i].PhaseScale, batch.Frames[i].PhaseScale)
		}
	}
}

func TestStreamRunFromDecoder(t *testing.T) {
	w := streamGame(t)
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, w); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.NewStreamReader(&buf, trace.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(dec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPhases < 3 {
		t.Errorf("phases = %d", res.NumPhases)
	}
	if res.SizeRatio() <= 0 || res.SizeRatio() > 0.2 {
		t.Errorf("size ratio = %v", res.SizeRatio())
	}
	if len(res.Timeline) == 0 {
		t.Error("empty timeline")
	}
}

func TestStreamPartialLastInterval(t *testing.T) {
	w := streamGame(t)
	s, err := New(shellOf(t, w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Push 10 frames: two full 4-frame intervals + a 2-frame tail.
	for i := 0; i < 10; i++ {
		if err := s.Push(w.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.ParentFrames != 10 {
		t.Errorf("parent frames = %d", res.ParentFrames)
	}
	// Phase scales must account for every frame.
	var total float64
	scaleByPhase := map[int]float64{}
	for i := range res.Frames {
		scaleByPhase[res.Frames[i].Phase] = res.Frames[i].PhaseScale
	}
	for _, sc := range scaleByPhase {
		total += sc
	}
	if int(total) != 10 {
		t.Errorf("phase scales cover %v of 10 frames", total)
	}
	if len(res.Timeline) != 3 {
		t.Errorf("timeline %q, want 3 intervals", res.Timeline)
	}
}

func TestStreamLifecycleErrors(t *testing.T) {
	w := streamGame(t)
	s, err := New(shellOf(t, w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(trace.Frame{}); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := s.Finish(); err == nil {
		t.Error("Finish with no frames accepted")
	}
	if _, err := s.Finish(); err == nil {
		t.Error("double Finish accepted")
	}
	if err := s.Push(w.Frames[0]); err == nil {
		t.Error("Push after Finish accepted")
	}
}

func TestStreamOptionValidation(t *testing.T) {
	w := streamGame(t)
	bad := DefaultOptions()
	bad.Phase.IntervalFrames = 0
	if _, err := New(shellOf(t, w), bad); err == nil {
		t.Error("bad phase options accepted")
	}
	bad = DefaultOptions()
	bad.Method.Threshold = 0
	if _, err := New(shellOf(t, w), bad); err == nil {
		t.Error("bad method accepted")
	}
}
