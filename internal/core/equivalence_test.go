package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/subset"
	"repro/internal/tracetest"
)

// The equivalence contract of the approximate hot-path modes: on the
// three-game corpus, every approximate mode must produce a subset
// whose size ratio is within tolerance of the exact path's and whose
// frequency-sweep validation correlation is within 0.01 of the exact
// path's. The approximate modes may only split clusters relative to
// exact, so their subsets can be somewhat larger — never smaller than
// a fraction of the exact size, and never wildly bigger.
func TestApproximateModesEquivalentToExact(t *testing.T) {
	const (
		corrTol      = 0.01 // |r_approx - r_exact|
		sizeLow      = 0.5  // approx size ratio >= exact * sizeLow
		sizeHigh     = 3.0  // approx size ratio <= exact * sizeHigh + sizeSlack
		sizeSlack    = 0.02 // absolute slack for tiny subsets
		minCorrAbs   = 0.98 // every mode must still validate strongly
		meanErrSlack = 0.05 // approx mean prediction error - exact's
	)

	approx := map[string]func(m subset.Method) subset.Method{
		"bucketed-leader": func(m subset.Method) subset.Method {
			m.Mode = subset.ModeBucketed
			return m
		},
		"bucketed-agglomerative": func(m subset.Method) subset.Method {
			m.Algo = subset.AlgoAgglomerative
			m.Mode = subset.ModeBucketed
			return m
		},
	}

	for _, p := range detProfiles() {
		for _, seed := range []uint64{7, 21} {
			w, err := tracetest.CachedWorkload(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			exact := goldenRun(t, w, nil, 0)
			if !exact.Validated {
				t.Fatalf("%s/seed%d: exact run did not validate", p.Name, seed)
			}
			for name, mod := range approx {
				t.Run(fmt.Sprintf("%s/seed%d/%s", p.Name, seed, name), func(t *testing.T) {
					opt := DefaultOptions()
					opt.Subset.Method = mod(opt.Subset.Method)
					s, err := New(opt)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := s.Run(w)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Validated {
						t.Fatal("approximate run did not validate")
					}
					dr := math.Abs(rep.Validation.Correlation - exact.Validation.Correlation)
					if dr > corrTol {
						t.Errorf("validation correlation %v vs exact %v: |dr| = %v > %v",
							rep.Validation.Correlation, exact.Validation.Correlation, dr, corrTol)
					}
					if rep.Validation.Correlation < minCorrAbs {
						t.Errorf("validation correlation %v < %v", rep.Validation.Correlation, minCorrAbs)
					}
					if rep.SizeRatio < exact.SizeRatio*sizeLow {
						t.Errorf("size ratio %v below %v x exact (%v)", rep.SizeRatio, sizeLow, exact.SizeRatio)
					}
					if rep.SizeRatio > exact.SizeRatio*sizeHigh+sizeSlack {
						t.Errorf("size ratio %v above %v x exact (%v) + %v", rep.SizeRatio, sizeHigh, exact.SizeRatio, sizeSlack)
					}
					if rep.Clustering != nil && exact.Clustering != nil &&
						rep.Clustering.MeanError > exact.Clustering.MeanError+meanErrSlack {
						t.Errorf("mean prediction error %v vs exact %v: approximation degraded accuracy beyond %v",
							rep.Clustering.MeanError, exact.Clustering.MeanError, meanErrSlack)
					}
				})
			}
		}
	}
}

// The exact mode is not approximately equivalent — it is the same
// computation. An explicit Mode: ModeExact run must stay byte-identical
// to the checked-in golden corpus at one worker and at four.
func TestExactModeByteIdenticalToGolden(t *testing.T) {
	for _, p := range detProfiles() {
		w, err := tracetest.CachedWorkload(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", fmt.Sprintf("%s-seed7.json", p.Name)))
		if err != nil {
			t.Fatalf("golden corpus missing (run -update first): %v", err)
		}
		for _, workers := range []int{1, 4} {
			opt := DefaultOptions()
			opt.Subset.Method.Mode = subset.ModeExact // explicit, not just zero-valued
			opt.Workers = workers
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenBytes(t, rep); !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: exact-mode report deviates from golden corpus", p.Name, workers)
			}
		}
	}
}
