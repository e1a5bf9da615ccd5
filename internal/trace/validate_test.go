package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracetest"
)

func TestValidateAcceptsFixture(t *testing.T) {
	if err := tracetest.Tiny().Validate(); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
}

// corrupt applies f to a fresh fixture and asserts Validate fails with
// a message containing wantSub.
func corrupt(t *testing.T, wantSub string, f func(w *trace.Workload)) {
	t.Helper()
	w := tracetest.Tiny()
	f(w)
	err := w.Validate()
	if err == nil {
		t.Fatalf("corruption %q not detected", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	corrupt(t, "empty name", func(w *trace.Workload) { w.Name = "" })
	corrupt(t, "no frames", func(w *trace.Workload) { w.Frames = nil })
	corrupt(t, "no draws", func(w *trace.Workload) { w.Frames[1].Draws = nil })
	corrupt(t, "vertex count", func(w *trace.Workload) { w.Frames[0].Draws[0].VertexCount = 0 })
	corrupt(t, "instance count", func(w *trace.Workload) { w.Frames[0].Draws[0].InstanceCount = -1 })
	corrupt(t, "vertex shader", func(w *trace.Workload) { w.Frames[0].Draws[0].VS = 999 })
	corrupt(t, "pixel shader", func(w *trace.Workload) { w.Frames[0].Draws[0].PS = 999 })
	corrupt(t, "bound as VS", func(w *trace.Workload) {
		// Bind a pixel shader in the VS slot.
		w.Frames[0].Draws[0].VS = w.Frames[0].Draws[0].PS
	})
	corrupt(t, "unbound", func(w *trace.Workload) {
		// Draw 0 binds ps.textured which samples slots 0 and 1.
		w.Frames[0].Draws[0].Textures = nil
	})
	corrupt(t, "texture id", func(w *trace.Workload) {
		w.Frames[0].Draws[0].Textures = []trace.TextureID{1, 99}
	})
	corrupt(t, "render target", func(w *trace.Workload) { w.Frames[0].Draws[0].RT = 5 })
	corrupt(t, "coverage", func(w *trace.Workload) { w.Frames[0].Draws[0].CoverageFrac = 1.5 })
	corrupt(t, "overdraw", func(w *trace.Workload) { w.Frames[0].Draws[0].Overdraw = 0.5 })
	corrupt(t, "locality", func(w *trace.Workload) { w.Frames[0].Draws[0].TexLocality = 0 })
}

func TestValidateReportsCoordinates(t *testing.T) {
	w := tracetest.Tiny()
	w.Frames[2].Draws[3].VertexCount = -5
	err := w.Validate()
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "frame 2 draw 3") {
		t.Errorf("error lacks coordinates: %v", err)
	}
}

func TestValidateAllCollectsEveryViolation(t *testing.T) {
	if err := tracetest.Tiny().ValidateAll(); err != nil {
		t.Fatalf("clean fixture: ValidateAll = %v, want nil", err)
	}

	w := tracetest.Tiny()
	w.Frames[0].Draws[0].CoverageFrac = 1.5
	w.Frames[1].Draws[1].Overdraw = 0.5
	w.Frames[2].Draws[0].VS = 999
	err := w.ValidateAll()
	if err == nil {
		t.Fatal("three violations, ValidateAll = nil")
	}
	// Validate stops at the first problem; ValidateAll must name all three.
	for _, want := range []string{
		"frame 0 draw 0", "coverage 1.5",
		"frame 1 draw 1", "overdraw 0.5",
		"frame 2 draw 0", "vertex shader",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q:\n%v", want, err)
		}
	}
	if first := w.Validate(); first == nil || strings.Contains(first.Error(), "overdraw") {
		t.Errorf("Validate should stop at the first violation, got %v", first)
	}
}

func TestSanitizeFrameDropsOnlyInvalidDraws(t *testing.T) {
	w := tracetest.Tiny()
	f := &w.Frames[0]
	total := len(f.Draws)
	if total < 3 {
		t.Fatalf("fixture frame 0 has %d draws, need >= 3", total)
	}
	survivor := f.Draws[1] // untouched draw, must come through intact
	f.Draws[0].CoverageFrac = 2
	f.Draws[2].Overdraw = 0

	dropped, err := w.SanitizeFrame(f)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if err == nil || !strings.Contains(err.Error(), "draw 0") || !strings.Contains(err.Error(), "draw 2") {
		t.Fatalf("joined violations should name draws 0 and 2, got %v", err)
	}
	if len(f.Draws) != total-2 {
		t.Fatalf("frame kept %d draws, want %d", len(f.Draws), total-2)
	}
	if f.Draws[0].VS != survivor.VS || f.Draws[0].CoverageFrac != survivor.CoverageFrac {
		t.Error("surviving draw was altered by sanitization")
	}
	// A sanitized frame must validate again.
	if err := w.Validate(); err != nil {
		t.Fatalf("workload invalid after sanitization: %v", err)
	}

	// Clean frames report zero drops and no error.
	dropped, err = w.SanitizeFrame(&w.Frames[1])
	if dropped != 0 || err != nil {
		t.Fatalf("clean frame: dropped=%d err=%v, want 0, nil", dropped, err)
	}
}

// A validation pass memoises each pixel shader's sampled texture
// slots; the memo must not let a later draw of the same shader skip
// the bound-slot check.
func TestValidateChecksSlotsOfEveryDraw(t *testing.T) {
	const want = "frame 2 draw 1: pixel shader 4 samples slot 1 which is unbound"
	corruptLate := func() *trace.Workload {
		w := tracetest.Tiny()
		// Frames 0-1 bind ps.textured (slots 0 and 1) cleanly first.
		w.Frames[2].Draws[1].Textures = []trace.TextureID{2}
		return w
	}
	if err := corruptLate().Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Validate = %v, want %q", err, want)
	}
	if err := corruptLate().ValidateAll(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ValidateAll = %v, want %q", err, want)
	}
	var buf bytes.Buffer
	if err := corruptLate().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, _, diag, err := trace.ReadWorkload(&buf, trace.ReaderOptions{Lenient: true})
	if err != nil || diag.DrawsDropped != 1 {
		t.Errorf("lenient read dropped %d draws (err %v), want exactly the late draw", diag.DrawsDropped, err)
	}
}
