package features

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/testutil"
	"repro/internal/tracetest"
)

// Per-draw feature extraction is the innermost loop of the subsetting
// hot path; it must not allocate. The flat lookup tables built once in
// NewExtractor exist to make this hold — a regression here shows
// up as per-draw map or slice churn across the whole corpus.
func TestDrawIntoZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	w := tracetest.Tiny()
	e, err := NewExtractor(w)
	if err != nil {
		t.Fatal(err)
	}
	draws := w.Frames[0].Draws
	dst := make([]float64, NumFeatures)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		e.DrawInto(&draws[i%len(draws)], dst)
		i++
	})
	if allocs != 0 {
		t.Fatalf("DrawInto allocates %.1f per draw, want 0", allocs)
	}
}

// FrameInto with a warm scratch matrix must not allocate either: the
// per-frame loop reuses one matrix across all frames of a workload.
func TestFrameIntoZeroAllocWhenWarm(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	w := tracetest.Tiny()
	e, err := NewExtractor(w)
	if err != nil {
		t.Fatal(err)
	}
	var m *linalg.Matrix
	fi := 0
	for i := range w.Frames { // warm the scratch to the largest frame
		m = e.FrameInto(&w.Frames[i], m)
	}
	allocs := testing.AllocsPerRun(500, func() {
		m = e.FrameInto(&w.Frames[fi%len(w.Frames)], m)
		fi++
	})
	if allocs != 0 {
		t.Fatalf("FrameInto with warm scratch allocates %.1f per frame, want 0", allocs)
	}
}

// FrameInto reuses the caller's matrix when it is big enough and
// produces exactly what Frame produces.
func TestFrameIntoMatchesFrame(t *testing.T) {
	w := tracetest.Tiny()
	e, err := NewExtractor(w)
	if err != nil {
		t.Fatal(err)
	}
	f := &w.Frames[0]
	want := e.Frame(f)
	scratch := linalg.NewMatrix(1, 1) // too small: forces realloc
	got := e.FrameInto(f, scratch)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape (%d,%d), want (%d,%d)", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("FrameInto differs from Frame at flat index %d", i)
		}
	}
	// Big enough scratch must be reused in place.
	big := linalg.NewMatrix(want.Rows+5, want.Cols)
	out := e.FrameInto(f, big)
	if &out.Data[0] != &big.Data[0] {
		t.Fatal("FrameInto did not reuse a sufficiently large scratch matrix")
	}
}
