package cluster

import (
	"math"
	"testing"

	"repro/internal/dcmath"
)

// Streaming leader consumes points one at a time and must agree
// exactly with the batch bucketed leader on the same point order: same
// assignments, same cluster count, bit-identical centroids.
func TestStreamingLeaderMatchesBucketedBatch(t *testing.T) {
	rng := dcmath.NewRNG(300)
	for trial := 0; trial < 10; trial++ {
		n := 50 + 17*trial
		d := 2 + trial%5
		th := 0.3 + 0.2*float64(trial%4)
		x := randomPoints(rng, n, d, 1.5)

		batch, _, err := LeaderBucketed(x, th)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := NewStreamingLeader(d, th)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, n)
		for i := 0; i < n; i++ {
			assign[i] = sl.Add(x.Row(i))
		}
		if sl.K() != batch.K {
			t.Fatalf("trial %d: streaming K=%d, batch K=%d", trial, sl.K(), batch.K)
		}
		if sl.N() != n {
			t.Fatalf("trial %d: N=%d, want %d", trial, sl.N(), n)
		}
		for i := range assign {
			if assign[i] != batch.Assign[i] {
				t.Fatalf("trial %d: point %d assigned %d streaming, %d batch", trial, i, assign[i], batch.Assign[i])
			}
		}
		cent := sl.Centroids()
		for c := 0; c < batch.K; c++ {
			for j := 0; j < d; j++ {
				if cent.At(c, j) != batch.Centroids.At(c, j) {
					t.Fatalf("trial %d: centroid (%d,%d) = %v streaming, %v batch",
						trial, c, j, cent.At(c, j), batch.Centroids.At(c, j))
				}
			}
		}
		sizes := sl.Sizes()
		want := batch.Sizes()
		for c := range sizes {
			if sizes[c] != want[c] {
				t.Fatalf("trial %d: cluster %d size %d, want %d", trial, c, sizes[c], want[c])
			}
		}
	}
}

// Add copies the point: mutating the caller's buffer afterwards must
// not corrupt leaders or centroids.
func TestStreamingLeaderCopiesInput(t *testing.T) {
	sl, err := NewStreamingLeader(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{1, 1}
	sl.Add(buf)
	buf[0], buf[1] = 99, 99
	sl.Add([]float64{1.1, 1.1}) // within 0.5 of the first leader
	if sl.K() != 1 {
		t.Fatalf("K = %d after buffer mutation, want 1 (leader was not copied)", sl.K())
	}
	cent := sl.Centroids()
	if got := cent.At(0, 0); math.Abs(got-1.05) > 1e-12 {
		t.Fatalf("centroid = %v, want 1.05", got)
	}
}

func TestStreamingLeaderErrors(t *testing.T) {
	if _, err := NewStreamingLeader(0, 1); err == nil {
		t.Error("accepted dim 0")
	}
	if _, err := NewStreamingLeader(3, 0); err == nil {
		t.Error("accepted threshold 0")
	}
	sl, _ := NewStreamingLeader(3, 1)
	if sl.Centroids() != nil {
		t.Error("empty clusterer returned centroids")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add with wrong dim did not panic")
		}
	}()
	sl.Add([]float64{1, 2})
}
