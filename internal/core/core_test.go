package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/synth"
	"repro/internal/trace"
)

func coreGame(t *testing.T) *trace.Workload {
	t.Helper()
	p := synth.Bioshock1Profile()
	p.Name = "coretest"
	p.Frames = 64
	p.MaterialsPerScene = 40
	p.SharedMaterials = 8
	p.Textures = 80
	p.VSPool = 6
	p.PSPool = 16
	w, err := synth.Generate(p, 51)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidatesOptions(t *testing.T) {
	bad := DefaultOptions()
	bad.Oracle.CoreClockGHz = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid oracle accepted")
	}
	bad = DefaultOptions()
	bad.OutlierThreshold = 0
	if _, err := New(bad); err == nil {
		t.Error("zero outlier threshold accepted")
	}
	bad = DefaultOptions()
	bad.ValidationClocks = []float64{1.0}
	if _, err := New(bad); err == nil {
		t.Error("single validation clock accepted")
	}
}

func TestRunFullPipeline(t *testing.T) {
	w := coreGame(t)
	opt := DefaultOptions()
	opt.ValidationClocks = []float64{0.5, 1.0, 2.0} // smaller sweep for test speed
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clustering == nil {
		t.Fatal("clustering evaluation missing")
	}
	if rep.Clustering.MeanError > 0.10 {
		t.Errorf("mean error = %v", rep.Clustering.MeanError)
	}
	if rep.Clustering.MeanEfficiency < 0.3 {
		t.Errorf("efficiency = %v", rep.Clustering.MeanEfficiency)
	}
	if rep.Detection.NumPhases < 4 {
		t.Errorf("phases = %d", rep.Detection.NumPhases)
	}
	if rep.SizeRatio <= 0 || rep.SizeRatio > 0.15 {
		t.Errorf("size ratio = %v", rep.SizeRatio)
	}
	if !rep.Validated {
		t.Fatal("validation missing")
	}
	if rep.Validation.Correlation < 0.995 {
		t.Errorf("validation correlation = %v", rep.Validation.Correlation)
	}
	if rep.PhaseTimeline() == "" {
		t.Error("empty timeline")
	}
}

func TestRunSkipEvalAndValidation(t *testing.T) {
	w := coreGame(t)
	opt := DefaultOptions()
	opt.SkipClusteringEval = true
	opt.ValidationClocks = nil
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clustering != nil {
		t.Error("clustering evaluated despite skip")
	}
	if rep.Validated {
		t.Error("validated despite nil clocks")
	}
	if rep.Subset == nil || rep.Subset.NumDraws() == 0 {
		t.Error("subset missing")
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	w := coreGame(t)
	w.Frames[0].Draws[0].Overdraw = 0
	if _, err := decodeAndRun(t, w, false, DefaultOptions()); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestRenderReport(t *testing.T) {
	w := coreGame(t)
	opt := DefaultOptions()
	opt.ValidationClocks = []float64{0.5, 1.0}
	s, _ := New(opt)
	rep, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"coretest", "clustering:", "phases:", "subset:", "validation:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCustomOracleConfig(t *testing.T) {
	// The pipeline must accept a non-default oracle.
	w := coreGame(t)
	opt := DefaultOptions()
	opt.Oracle = gpu.BaseConfig().WithMemClock(0.5)
	opt.ValidationClocks = nil
	opt.SkipClusteringEval = true
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
}
