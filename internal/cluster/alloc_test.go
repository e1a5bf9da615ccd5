package cluster

import (
	"testing"

	"repro/internal/dcmath"
	"repro/internal/linalg"
	"repro/internal/testutil"
)

// The bucketed leader's per-point steady state — a point joining an
// existing cluster — must not allocate: it is the inner loop of the
// bucketed mode, and the heap profile of the hot path showed per-draw
// churn is what parallel speedups could not hide. One call allocates
// per cluster and per call, never per point, so a frame of the same
// clusters with 16x the points costs the same allocation count.
func TestLeaderBucketedPerPointZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	blobs := func(n int) *linalg.Matrix {
		rng := dcmath.NewRNG(400)
		x := linalg.NewMatrix(n, 8)
		for i := 0; i < n; i++ {
			for j, row := 0, x.Row(i); j < len(row); j++ {
				row[j] = float64(i%4)*10 + rng.Float64()*0.1
			}
		}
		return x
	}
	allocs := func(x *linalg.Matrix) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := LeaderBucketed(x, 1.0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := blobs(64), blobs(1024)
	res, _, err := LeaderBucketed(large, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 16 {
		t.Fatalf("fixture spreads over %d clusters; want a handful so later points join them", res.K)
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("LeaderBucketed allocates %.0f for 64 points, %.0f for 1024: per-point steady state allocates", a, b)
	}
}

// Leader allocates its result and nothing else once warm: the
// assignment, the centroid matrix and the centroid fold's counts. Its
// first-coordinate index comes from a pool, so the count must not grow
// with the number of leaders a frame founds — a dense frame of a few
// clusters and a sparse one of hundreds cost the same.
func TestLeaderAllocsIndependentOfLeaders(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	frame := func(clusters int) *linalg.Matrix {
		rng := dcmath.NewRNG(401)
		x := linalg.NewMatrix(1024, 8)
		for i := 0; i < x.Rows; i++ {
			for j, row := 0, x.Row(i); j < len(row); j++ {
				row[j] = float64((i*7+j)%clusters)*3 + rng.Float64()*0.1
			}
		}
		return x
	}
	dense, sparse := frame(4), frame(512)
	for _, x := range []*linalg.Matrix{dense, sparse} {
		if _, err := Leader(x, 1.0); err != nil { // warm the pooled index
			t.Fatal(err)
		}
	}
	allocs := func(x *linalg.Matrix) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Leader(x, 1.0); err != nil {
				t.Fatal(err)
			}
		})
	}
	kd, _ := Leader(dense, 1.0)
	ks, _ := Leader(sparse, 1.0)
	if kd.K > 16 || ks.K < 256 {
		t.Fatalf("fixtures found %d and %d leaders; want a handful and hundreds", kd.K, ks.K)
	}
	if a, b := allocs(dense), allocs(sparse); a != b || a > 4 {
		t.Fatalf("Leader allocates %.0f with %d leaders, %.0f with %d: want the same small constant", a, kd.K, b, ks.K)
	}
}
