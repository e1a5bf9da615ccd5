package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dcmath"
	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/synth"
	"repro/internal/tracetest"
)

// leaderLinear is the frozen linear-scan Leader from before the
// first-coordinate index: every point visits every leader in founding
// order with an early-exit distance and keeps the last leader at the
// smallest distance within threshold. The live Leader must reproduce
// it bit for bit.
func leaderLinear(x *linalg.Matrix, threshold float64) (Result, error) {
	if threshold <= 0 {
		return Result{}, fmt.Errorf("cluster: leader threshold %v <= 0", threshold)
	}
	n := x.Rows
	limit := threshold * threshold
	assign := make([]int, n)
	var leaders []int // point index of each cluster's founder
	for i := 0; i < n; i++ {
		row := x.Row(i)
		best := -1
		bestD := limit
		for c, li := range leaders {
			d := sqDistEarlyExit(row, x.Row(li), bestD)
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
	res := Result{
		Assign:    assign,
		K:         len(leaders),
		Centroids: computeCentroids(x, assign, len(leaders)),
	}
	return res, nil
}

// diffLinear runs Leader and leaderLinear on x and describes the first
// difference between them, or returns "" when Assign, K and Centroids
// are bit-identical (NaN payloads included) or both fail alike.
func diffLinear(x *linalg.Matrix, threshold float64) string {
	got, gerr := recoverLeader(Leader, x, threshold)
	want, werr := recoverLeader(leaderLinear, x, threshold)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, linear scan error %v", gerr, werr)
	}
	if gerr != nil {
		return ""
	}
	if got.K != want.K {
		return fmt.Sprintf("K = %d, linear scan %d", got.K, want.K)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Sprintf("point %d (%v) joins %d, linear scan %d", i, x.Row(i), got.Assign[i], want.Assign[i])
		}
	}
	g, w := got.Centroids, want.Centroids
	if g.Rows != w.Rows || g.Cols != w.Cols {
		return fmt.Sprintf("centroids %dx%d, linear scan %dx%d", g.Rows, g.Cols, w.Rows, w.Cols)
	}
	for i := range w.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
			return fmt.Sprintf("centroid value %d = %v, linear scan %v", i, g.Data[i], w.Data[i])
		}
	}
	return ""
}

// recoverLeader runs leader, turning a panic into an error so that
// both implementations can be held to the same failure.
func recoverLeader(leader func(*linalg.Matrix, float64) (Result, error), x *linalg.Matrix, threshold float64) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return leader(x, threshold)
}

func requireLinear(t *testing.T, name string, x *linalg.Matrix, threshold float64) {
	t.Helper()
	if d := diffLinear(x, threshold); d != "" {
		t.Fatalf("%s, threshold %v: %s", name, threshold, d)
	}
}

// matrixOf builds a matrix from literal rows.
func matrixOf(cols int, rows ...[]float64) *linalg.Matrix {
	x := linalg.NewMatrix(len(rows), cols)
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	return x
}

// The pipeline's inputs: z-scored feature frames of all three games,
// their PCA projections, and single feature columns, where the first
// coordinate's term is the whole distance.
func TestLeaderMatchesLinearOnRealFrames(t *testing.T) {
	thresholds := []float64{0.25, 0.5, 1, 2}
	for _, p := range []synth.Profile{synth.Bioshock1Profile(), synth.Bioshock2Profile(), synth.BioshockInfiniteProfile()} {
		p.Frames = 4
		w, err := tracetest.CachedWorkload(p, 42)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := features.NewExtractor(w)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range w.Frames {
			x := ex.Frame(&w.Frames[fi])
			var z linalg.ZScore
			z.Fit(x)
			for i := 0; i < x.Rows; i++ {
				z.Apply(x.Row(i))
			}
			pca, err := linalg.FitPCA(x, 4)
			if err != nil {
				t.Fatal(err)
			}
			proj := pca.TransformMatrix(x)
			name := fmt.Sprintf("%s frame %d", p.Name, fi)
			for _, th := range thresholds {
				requireLinear(t, name, x, th)
				requireLinear(t, name+" PCA", proj, th)
				for _, col := range []int{0, 3, 17} {
					requireLinear(t, fmt.Sprintf("%s column %d", name, col), features.Select(x, []int{col}), th)
				}
			}
		}
	}
}

func TestLeaderMatchesLinearConstructed(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name       string
		x          *linalg.Matrix
		thresholds []float64
	}{
		// NewMatrix makes no empty matrix; a literal one fails alike.
		{"empty", &linalg.Matrix{Cols: 3}, []float64{1}},
		{"one point", matrixOf(2, []float64{1, 2}), []float64{1}},
		// Leaders at 0 and 2, a point at 1: equidistant, the later
		// leader wins at threshold 1 and above.
		{"tie 1-D", matrixOf(1, []float64{0}, []float64{2}, []float64{1}), []float64{1, 1.5, 4}},
		{"tie 2-D", matrixOf(2, []float64{0, 0}, []float64{2, 0}, []float64{1, 0}), []float64{1, 3}},
		{"tie across columns", matrixOf(2, []float64{0, 1}, []float64{1, 0}, []float64{0, 0}), []float64{1, 2}},
		// The point before the tie joined the earlier leader, so the
		// warm start tries the loser first.
		{"tie after warm start", matrixOf(1, []float64{0}, []float64{2}, []float64{0}, []float64{1}), []float64{1}},
		{"equal first coordinates", matrixOf(2,
			[]float64{1, 0}, []float64{1, 5}, []float64{1, 0.1}, []float64{1, 4.9},
			[]float64{1, 2.5}, []float64{1, 2.5}, []float64{-1, 2.5}), []float64{0.5, 1, 3}},
		{"non-finite", matrixOf(2,
			[]float64{nan, 0}, []float64{0, nan}, []float64{inf, 0}, []float64{-inf, 0},
			[]float64{inf, 0}, []float64{nan, 0}, []float64{0, 0}, []float64{math.Copysign(0, -1), 0},
			[]float64{0, inf}, []float64{1, 0}), []float64{0.5, 2, inf, nan}},
	}
	for _, tc := range cases {
		for _, th := range tc.thresholds {
			requireLinear(t, tc.name, tc.x, th)
		}
	}
	res, err := Leader(matrixOf(1, []float64{0}, []float64{2}, []float64{1}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[2] != 1 {
		t.Fatalf("equidistant point joins leader %d, want the later leader 1", res.Assign[2])
	}
}

// Property: on coarse integer grids, where equal distances and equal
// first coordinates are common, Leader is the linear scan.
func TestLeaderMatchesLinearOnGridsProperty(t *testing.T) {
	rng := dcmath.NewRNG(104)
	f := func(nRaw, dRaw, thRaw uint8) bool {
		n := int(nRaw%120) + 1
		d := int(dRaw%4) + 1
		th := 0.5 * float64(thRaw%8+1)
		x := linalg.NewMatrix(n, d)
		for i := range x.Data {
			x.Data[i] = float64(rng.Intn(7) - 3)
		}
		if diff := diffLinear(x, th); diff != "" {
			t.Log(diff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
