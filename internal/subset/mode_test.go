package subset

import (
	"testing"

	"repro/internal/cache"
)

func TestParseMode(t *testing.T) {
	good := map[string]Mode{
		"":         ModeExact,
		"exact":    ModeExact,
		"bucketed": ModeBucketed,
	}
	for s, want := range good {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
		if s != "" && got.String() != s {
			t.Errorf("Mode(%v).String() = %q, want %q (round trip)", got, got.String(), s)
		}
	}
	for _, s := range []string{"turbo", "sampled", "streaming"} {
		if _, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode accepted unknown mode %q", s)
		}
	}
}

func TestModeValidation(t *testing.T) {
	bad := map[string]Method{
		"bucketed kmeans": {Algo: AlgoKMeans, K: 5, MaxIter: 10, Mode: ModeBucketed},
		"unknown mode":    {Algo: AlgoLeader, Threshold: 1, Mode: Mode(99)},
	}
	for name, m := range bad {
		if m.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	good := []Method{
		{Algo: AlgoLeader, Threshold: 1, Mode: ModeBucketed},
		{Algo: AlgoAgglomerative, Threshold: 1, Mode: ModeBucketed},
	}
	for _, m := range good {
		if err := m.validate(); err != nil {
			t.Errorf("%+v: rejected: %v", m, err)
		}
	}
}

// Mode must feed the cache key: two methods differing only in hot-path
// strategy cluster differently and cannot share cached results.
func TestModeChangesCacheKey(t *testing.T) {
	base := DefaultMethod()
	variants := []Method{base, base}
	variants[1].Mode = ModeBucketed
	seen := map[string]int{}
	for i, m := range variants {
		k := m.keyInto(cache.NewKey("test", 1)).Sum().String()
		if j, dup := seen[k]; dup {
			t.Errorf("methods %d and %d share a cache key", j, i)
		}
		seen[k] = i
	}
}

// Every non-exact mode must produce a structurally valid clustering on
// a real synthetic frame, with representatives and weights consistent
// with the assignment.
func TestClusterFrameModes(t *testing.T) {
	w := testGame(t)
	f := &w.Frames[0]
	modes := []Method{
		{Algo: AlgoLeader, Threshold: 0.5, Normalizer: "zscore", Mode: ModeBucketed},
		{Algo: AlgoAgglomerative, Threshold: 0.5, Normalizer: "zscore", Mode: ModeBucketed},
		{Algo: AlgoLeader, Threshold: 0.5, Normalizer: "minmax", Mode: ModeBucketed},
		{Algo: AlgoLeader, Threshold: 3.0, Normalizer: "none", Mode: ModeBucketed},
		{Algo: AlgoLeader, Threshold: 0.5, Normalizer: "zscore", Mode: ModeBucketed,
			FeatureGroups: []string{"vshader", "pshader"}},
	}
	for _, m := range modes {
		name := m.Mode.String() + "/" + m.Algo.String() + "/" + m.Normalizer
		fc, err := NewFrameClusterer(w, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cf, err := fc.ClusterFrame(f, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cf.Result.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cf.RepDraws) != cf.Result.K || len(cf.Weights) != cf.Result.K {
			t.Fatalf("%s: %d reps, %d weights for K=%d", name, len(cf.RepDraws), len(cf.Weights), cf.Result.K)
		}
		var total float64
		for c, di := range cf.RepDraws {
			if di < 0 || di >= len(f.Draws) {
				t.Fatalf("%s: rep %d out of range", name, di)
			}
			if cf.Result.Assign[di] != c {
				t.Fatalf("%s: rep of cluster %d is assigned to %d", name, c, cf.Result.Assign[di])
			}
			total += cf.Weights[c]
		}
		if total != float64(len(f.Draws)) {
			t.Fatalf("%s: weights sum to %v, want %d", name, total, len(f.Draws))
		}
	}
}
