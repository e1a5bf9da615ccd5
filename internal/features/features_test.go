package features

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/shader"
	"repro/internal/tracetest"
)

func TestNamesAndSchemaShape(t *testing.T) {
	names := Names()
	if len(names) != NumFeatures {
		t.Fatalf("names = %d, NumFeatures = %d", len(names), NumFeatures)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" {
			t.Fatal("empty feature name")
		}
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestGroupsPartitionSchema(t *testing.T) {
	all, err := GroupIndices(GroupNames()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != NumFeatures {
		t.Fatalf("groups cover %d of %d features", len(all), NumFeatures)
	}
	seen := map[int]bool{}
	for _, i := range all {
		if seen[i] {
			t.Fatalf("feature %d in two groups", i)
		}
		seen[i] = true
	}
	if _, err := GroupIndices("nope"); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestExtractorBasics(t *testing.T) {
	w := tracetest.Tiny()
	e, err := NewExtractor(w)
	if err != nil {
		t.Fatal(err)
	}
	d := &w.Frames[0].Draws[0]
	v := e.Draw(d)
	if len(v) != NumFeatures {
		t.Fatalf("vector length %d", len(v))
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("feature %d (%s) = %v", i, Names()[i], x)
		}
	}
	// Spot checks against the fixture: draw 0 has 3000 verts, 2 textures,
	// depth on, blend off, trilist.
	if got, want := v[fGeomLogVerts], math.Log1p(3000); got != want {
		t.Errorf("logverts = %v, want %v", got, want)
	}
	if v[fTexCount] != 2 {
		t.Errorf("tex count = %v", v[fTexCount])
	}
	if v[fStateDepth] != 1 || v[fStateBlend] != 0 || v[fStateTriList] != 1 {
		t.Errorf("state flags = %v %v %v", v[fStateDepth], v[fStateBlend], v[fStateTriList])
	}
}

func TestExtractorDeterministic(t *testing.T) {
	w := tracetest.Tiny()
	e, _ := NewExtractor(w)
	d := &w.Frames[0].Draws[1]
	if !linalg.EqualVec(e.Draw(d), e.Draw(d), 0) {
		t.Error("extraction not deterministic")
	}
}

func TestIdenticalDrawsIdenticalFeatures(t *testing.T) {
	w := tracetest.Tiny()
	e, _ := NewExtractor(w)
	d := w.Frames[0].Draws[0]
	d2 := d
	if !linalg.EqualVec(e.Draw(&d), e.Draw(&d2), 0) {
		t.Error("identical draws produced different features")
	}
	// And a materially different draw must differ.
	d2.VertexCount *= 10
	if linalg.EqualVec(e.Draw(&d), e.Draw(&d2), 1e-9) {
		t.Error("different draws produced identical features")
	}
}

func TestFeaturesSeparateFixtureMaterials(t *testing.T) {
	// Draws of the same material (3 and 4 share MaterialID 3 but have
	// different vertex counts) must be closer to each other than to the
	// texture-heavy draw 0.
	w := tracetest.Tiny()
	e, _ := NewExtractor(w)
	f := w.Frames[0]
	a := e.Draw(&f.Draws[2])
	b := e.Draw(&f.Draws[3])
	c := e.Draw(&f.Draws[0])
	if linalg.L2Dist(a, b) >= linalg.L2Dist(a, c) {
		t.Errorf("same-material distance %v >= cross-material %v",
			linalg.L2Dist(a, b), linalg.L2Dist(a, c))
	}
}

func TestFrameMatrix(t *testing.T) {
	w := tracetest.Tiny()
	e, _ := NewExtractor(w)
	m := e.Frame(&w.Frames[0])
	if m.Rows != len(w.Frames[0].Draws) || m.Cols != NumFeatures {
		t.Fatalf("matrix %dx%d", m.Rows, m.Cols)
	}
	if !linalg.EqualVec(m.Row(2), e.Draw(&w.Frames[0].Draws[2]), 0) {
		t.Error("matrix row != Draw vector")
	}
}

func TestSelect(t *testing.T) {
	m := linalg.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := Select(m, []int{2, 0})
	if s.Cols != 2 || s.At(0, 0) != 3 || s.At(0, 1) != 1 || s.At(1, 0) != 6 {
		t.Errorf("Select wrong: %+v", s)
	}
}

func TestDrawIntoPanics(t *testing.T) {
	w := tracetest.Tiny()
	e, _ := NewExtractor(w)
	d := w.Frames[0].Draws[0]
	defer func() {
		if recover() == nil {
			t.Error("short dst should panic")
		}
	}()
	e.DrawInto(&d, make([]float64, 3))
}

func TestDrawPanicsOnUnknownShader(t *testing.T) {
	w := tracetest.Tiny()
	e, _ := NewExtractor(w)
	d := w.Frames[0].Draws[0]
	d.PS = 999
	defer func() {
		if recover() == nil {
			t.Error("unknown shader should panic")
		}
	}()
	e.Draw(&d)
}

// A registry restored under sparse ids extracts exactly as the dense
// one: the per-program terms are keyed by id, not by id order.
func TestSparseShaderIDsExtractLikeDense(t *testing.T) {
	dense, sparse := tracetest.Tiny(), tracetest.TinySparseIDs()
	ed, err := NewExtractor(dense)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewExtractor(sparse)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range dense.Frames {
		want, got := ed.Frame(&dense.Frames[fi]), es.Frame(&sparse.Frames[fi])
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("frame %d: sparse-id feature %d = %v, dense %v", fi, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// Ids around and far beyond the registered ones are dangling
// references: extraction panics naming the stage and the id.
func TestSparseShaderIDsPanicOnUnknown(t *testing.T) {
	w := tracetest.TinySparseIDs()
	e, err := NewExtractor(w)
	if err != nil {
		t.Fatal(err)
	}
	var maxID shader.ID
	for _, id := range w.Shaders.IDs() {
		maxID = max(maxID, id)
	}
	for _, id := range []shader.ID{0, maxID + 1, math.MaxUint32 - 1} {
		for _, stage := range []string{"VS", "PS"} {
			d := w.Frames[0].Draws[0]
			if stage == "VS" {
				d.VS = id
			} else {
				d.PS = id
			}
			want := fmt.Sprintf("features: draw references unknown %s %d", stage, id)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s %d: panic %v, want %q", stage, id, got, want)
					}
				}()
				e.Draw(&d)
			}()
		}
	}
}

// The shader table is sized by the program count, not by the largest
// id: a table indexed by id would need 2^31 entries for TinySparseIDs.
func TestNewExtractorMemoryIndependentOfIDSpread(t *testing.T) {
	w := tracetest.TinySparseIDs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewExtractor(w)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("NewExtractor allocated %d bytes for %d programs", grew, w.Shaders.Len())
	}
}
