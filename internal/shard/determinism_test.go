package shard

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// detProfiles is the three-game corpus at determinism-test scale.
func detProfiles() []synth.Profile {
	ps := synth.SuiteProfiles()
	for i := range ps {
		ps[i].Frames = 16
		ps[i].MaterialsPerScene = 30
		ps[i].SharedMaterials = 8
		ps[i].Textures = 60
		ps[i].VSPool = 6
		ps[i].PSPool = 12
	}
	return ps
}

// strayFiles lists every file under a cache directory that is not a
// finished .s3dc entry — the debris a rerun would have to step around.
func strayFiles(t testing.TB, cacheDir string) []string {
	t.Helper()
	var stray []string
	err := filepath.WalkDir(cacheDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) != ".s3dc" {
			stray = append(stray, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return stray
}

// sweepShards runs one worker per shard concurrently over a shared
// cache directory and merges their manifests. Each worker opens its
// OWN cache handle on the directory — the cross-process topology,
// in-process, which is exactly what the race detector needs to see.
// It returns each worker's stats and its cache handle's counters.
func sweepShards(t testing.TB, w *trace.Workload, cfgs []gpu.Config, n int, cacheDir string) (*RunManifest, []WorkerStats, []cache.Stats) {
	t.Helper()
	manifests := make([]*Manifest, n)
	stats := make([]WorkerStats, n)
	cstats := make([]cache.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := cache.New(cache.Config{Dir: cacheDir})
			if err != nil {
				errs[i] = err
				return
			}
			manifests[i], stats[i], errs[i] = RunShard(context.Background(), c, w, w.Fingerprint(), cfgs, Spec{Index: i, Count: n})
			cstats[i] = c.Stats()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i+1, n, err)
		}
	}
	rm, err := Merge(manifests)
	if err != nil {
		t.Fatalf("merge %d shards: %v", n, err)
	}
	return rm, stats, cstats
}

func encodeRM(t testing.TB, rm *RunManifest) []byte {
	t.Helper()
	data, err := rm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedSweepByteIdenticalToSequential is the shard layer's
// headline contract: for every corpus profile and seed, partitioning
// the sweep across 1, 2, 4 or 8 workers sharing one cache directory
// and merging their manifests yields a run manifest byte-identical to
// the uncached sequential fold — and a byte-identical rendered table.
// On the cold directory every owned task costs exactly one cache
// lookup: one miss, one computation.
func TestShardedSweepByteIdenticalToSequential(t *testing.T) {
	cfgs := testGrid(4, 2)
	for _, p := range detProfiles() {
		for _, seed := range []uint64{7, 1234} {
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				w, err := tracetest.CachedWorkload(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := RunSequential(context.Background(), nil, w, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				refBytes := encodeRM(t, ref)
				var refTable bytes.Buffer
				ref.Render(&refTable)
				for _, n := range []int{1, 2, 4, 8} {
					cacheDir := t.TempDir()
					rm, stats, cstats := sweepShards(t, w, cfgs, n, cacheDir)
					if got := encodeRM(t, rm); !bytes.Equal(got, refBytes) {
						t.Fatalf("%d shards: merged manifest differs from sequential\nseq:    %s\nmerged: %s", n, refBytes, got)
					}
					var table bytes.Buffer
					rm.Render(&table)
					if table.String() != refTable.String() {
						t.Fatalf("%d shards: rendered table differs from sequential", n)
					}
					owned := 0
					for i, s := range stats {
						owned += s.Owned
						if s.Computed != s.Owned || cstats[i].Misses != int64(s.Owned) {
							t.Fatalf("%d shards, shard %d on a cold cache: stats %+v, %d misses; want computed == misses == owned",
								n, i+1, s, cstats[i].Misses)
						}
					}
					if owned != len(cfgs) {
						t.Fatalf("%d shards own %d tasks, grid has %d", n, owned, len(cfgs))
					}
					if stray := strayFiles(t, cacheDir); len(stray) != 0 {
						t.Fatalf("%d shards left non-entry files behind: %v", n, stray)
					}
				}
			})
		}
	}
}

// TestCrashedWorkerResumedFromCache reruns a shard over the cache
// directory a killed worker left behind: the entries of the first k
// tasks it owned, and nothing else. The rerun, with no special
// options and under a short deadline, must serve those k tasks as
// cache hits, price the rest, add nothing but entries to the
// directory, and merge byte-identically with the sequential run.
func TestCrashedWorkerResumedFromCache(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	cacheDir := t.TempDir()
	spec := Spec{Index: 0, Count: 2}

	// Shard 1/2 owns seqs 0, 2, 4, 6; the killed worker finished the
	// first two. Entries are keyed by (workload, config) alone, so
	// pricing those configs stores exactly the entries it left.
	const k = 2
	c1, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSequential(context.Background(), c1, w, []gpu.Config{cfgs[0], cfgs[2]}); err != nil {
		t.Fatal(err)
	}
	c1.Flush()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c2, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	m0, st, err := RunShard(ctx, c2, w, w.Fingerprint(), cfgs, spec)
	if err != nil {
		t.Fatalf("rerun of the crashed shard: %v", err)
	}
	if st.CacheHits != k || st.Computed != st.Owned-k {
		t.Fatalf("rerun stats %+v: want %d cache hits from pre-crash work and the rest computed", st, k)
	}
	c2.Flush()
	if stray := strayFiles(t, cacheDir); len(stray) != 0 {
		t.Fatalf("rerun left non-entry files: %v", stray)
	}

	// The other shard, then the byte-identity check.
	m1, _, err := RunShard(context.Background(), c2, w, w.Fingerprint(), cfgs, Spec{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Merge([]*Manifest{m0, m1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("merge after crash+rerun differs from sequential")
	}
}

// TestOverlappingShardsAgree races two workers over the SAME full-grid
// shard on one cache directory — every lookup contended, tasks priced
// by both workers whenever both miss. Both must emit byte-identical
// manifests, and the merge of the pair must equal the sequential run.
// Run under -race, this proves duplicate computation is safe: the
// duplicates are field-equal by construction.
func TestOverlappingShardsAgree(t *testing.T) {
	w := testWorkload(t, 1234)
	cfgs := testGrid(4, 2)
	cacheDir := t.TempDir()
	full := Spec{Index: 0, Count: 1}

	manifests := make([]*Manifest, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := cache.New(cache.Config{Dir: cacheDir})
			if err != nil {
				errs[i] = err
				return
			}
			manifests[i], _, errs[i] = RunShard(context.Background(), c, w, w.Fingerprint(), cfgs, full)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("twin %d: %v", i, err)
		}
	}
	b0, err := manifests[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := manifests[1].Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b0, b1) {
		t.Fatal("racing twins emitted different manifests")
	}
	rm, err := Merge(manifests)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("merged twins differ from sequential")
	}
}

// TestWorkerWithoutCache: no cache at all degrades to direct
// computation with identical results — sharding never depends on the
// cache for correctness.
func TestWorkerWithoutCache(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(2, 2)
	var manifests []*Manifest
	for i := 0; i < 2; i++ {
		m, st, err := RunShard(context.Background(), nil, w, w.Fingerprint(), cfgs, Spec{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != 0 || st.Computed != st.Owned {
			t.Fatalf("cacheless worker stats %+v: everything should be computed", st)
		}
		manifests = append(manifests, m)
	}
	rm, err := Merge(manifests)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("cacheless shards differ from sequential")
	}
}

// TestSequentialWarmsShardsAndViceVersa: a sequential run and a
// sharded run share cache entries in both directions — the key schema
// is one and the same.
func TestSequentialWarmsShardsAndViceVersa(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(2, 2)
	cacheDir := t.TempDir()
	c, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), c, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()
	m, st, err := RunShard(context.Background(), c, w, w.Fingerprint(), cfgs, Spec{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Computed != 0 || st.CacheHits != st.Owned {
		t.Fatalf("worker over a warm cache stats %+v: everything should be a hit", st)
	}
	rm, err := Merge([]*Manifest{m})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("warm-cache shard differs from the sequential run that warmed it")
	}
}

// TestHalfWarmShardPricesOnlyMisses: over a directory holding half the
// grid, a worker owning the whole grid prices exactly the other half in
// one batch, and its WorkerStats agree with its cache handle's
// counters, its shard counters and its price-grid span.
func TestHalfWarmShardPricesOnlyMisses(t *testing.T) {
	w := testWorkload(t, 7)
	cfgs := testGrid(4, 2)
	cacheDir := t.TempDir()
	warm, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunShard(context.Background(), warm, w, w.Fingerprint(), cfgs, Spec{Index: 0, Count: 2}); err != nil {
		t.Fatal(err)
	}
	warm.Flush()

	c, err := cache.New(cache.Config{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun("shard-test")
	m, st, err := RunShard(run.Context(context.Background()), c, w, w.Fingerprint(), cfgs, Spec{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()
	half := len(cfgs) / 2
	if st.Owned != len(cfgs) || st.Computed != half || st.CacheHits != half {
		t.Fatalf("half-warm worker stats %+v, want %d computed and %d hits", st, half, half)
	}
	if cs := c.Stats(); cs.Misses != int64(st.Computed) || cs.Hits != int64(st.CacheHits) {
		t.Fatalf("cache stats %+v disagree with worker stats %+v", cs, st)
	}
	man := run.Finish()
	ctr := man.Metrics.Counters
	if ctr["shard.tasks_computed"] != int64(st.Computed) || ctr["sweep.configs_priced"] != int64(st.Computed) ||
		ctr["shard.tasks_cache_hit"] != int64(st.CacheHits) {
		t.Fatalf("counters %v disagree with worker stats %+v", ctr, st)
	}
	if len(man.Stages) != 1 || man.Stages[0].Name != "shard-worker" {
		t.Fatalf("stages %+v, want one shard-worker", man.Stages)
	}
	var grids []obs.StageManifest
	for _, ch := range man.Stages[0].Children {
		if ch.Name == "price-grid" {
			grids = append(grids, ch)
		}
	}
	if len(grids) != 1 || grids[0].Items != int64(st.Computed) || grids[0].Workers < 1 {
		t.Fatalf("price-grid spans %+v, want one with %d items", grids, st.Computed)
	}

	rm, err := Merge([]*Manifest{m})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(context.Background(), nil, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRM(t, rm), encodeRM(t, ref)) {
		t.Fatal("half-warm shard differs from the uncached sequential run")
	}
}
