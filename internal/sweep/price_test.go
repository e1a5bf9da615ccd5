package sweep

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// resolverGrid is a small workload, its fingerprint, a base simulator
// and an 8-config clock grid for the ResolveGrid cache tests.
func resolverGrid(t *testing.T) (*gpu.Simulator, trace.Fingerprint, []gpu.Config) {
	t.Helper()
	p := synth.BioshockInfiniteProfile()
	p.Name = "resolvertest"
	p.Frames = 48
	w, err := tracetest.CachedWorkload(p, 44)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := Grid(gpu.BaseConfig(), []float64{0.6, 1.0, 1.4, 1.8}, []float64{0.8, 1.2})
	base, err := gpu.NewSimulator(cfgs[0], w)
	if err != nil {
		t.Fatal(err)
	}
	return base, w.Fingerprint(), cfgs
}

// entryFiles lists the finished cache entries under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".s3dc" {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// resolveObserved runs ResolveGrid over a fresh cache handle on dir
// under an observed run, and returns what it priced, the handle's
// counters and the run's manifest.
func resolveObserved(t *testing.T, ctx context.Context, dir string, base *gpu.Simulator, fp trace.Fingerprint, cfgs []gpu.Config, workers int) ([]PricedParent, int, cache.Stats, *obs.Manifest, error) {
	t.Helper()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun("resolver-test")
	priced, computed, err := ResolveGrid(run.Context(ctx), c, base, fp, cfgs, workers)
	c.Flush()
	return priced, computed, c.Stats(), run.Finish(), err
}

// assertPricedLike requires every priced parent to be bit-identical to
// the config's own uncached RunTotals pass.
func assertPricedLike(t *testing.T, base *gpu.Simulator, cfgs []gpu.Config, got []PricedParent) {
	t.Helper()
	for i, cfg := range cfgs {
		sim, err := base.WithConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, tot := sim.RunTotals()
		p := got[i]
		same := len(p.FrameNs) == len(res.FrameNs) && p.Totals == tot &&
			math.Float64bits(p.TotalNs) == math.Float64bits(res.TotalNs)
		for f := 0; same && f < len(p.FrameNs); f++ {
			same = math.Float64bits(p.FrameNs[f]) == math.Float64bits(res.FrameNs[f])
		}
		if !same {
			t.Fatalf("config %d (%s): resolved pricing differs from RunTotals", i, cfg.Name)
		}
	}
}

func configsPriced(m *obs.Manifest) int64 { return m.Metrics.Counters["sweep.configs_priced"] }

func TestResolveGridColdWarmHalfWarm(t *testing.T) {
	base, fp, cfgs := resolverGrid(t)
	ctx := context.Background()
	n := len(cfgs)

	cold := t.TempDir()
	priced, computed, st, m, err := resolveObserved(t, ctx, cold, base, fp, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertPricedLike(t, base, cfgs, priced)
	if computed != n || st.Misses != int64(n) || st.Hits != 0 || configsPriced(m) != int64(n) {
		t.Fatalf("cold: computed %d, stats %+v, configs_priced %d; want %d misses and no hits", computed, st, configsPriced(m), n)
	}
	if files := entryFiles(t, cold); len(files) != n {
		t.Fatalf("cold: %d entries on disk, want %d", len(files), n)
	}

	priced, computed, st, m, err = resolveObserved(t, ctx, cold, base, fp, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertPricedLike(t, base, cfgs, priced)
	if computed != 0 || st.Hits != int64(n) || st.Misses != 0 || configsPriced(m) != 0 {
		t.Fatalf("warm: computed %d, stats %+v, configs_priced %d; want %d hits and nothing priced", computed, st, configsPriced(m), n)
	}
	for _, sp := range m.Stages {
		if sp.Name == "price-grid" {
			t.Fatal("warm: a price-grid span was recorded for a pass that priced nothing")
		}
	}

	// Half-warm: every other config is already stored.
	half := t.TempDir()
	var warmed []gpu.Config
	for i := 0; i < n; i += 2 {
		warmed = append(warmed, cfgs[i])
	}
	if _, _, _, _, err := resolveObserved(t, ctx, half, base, fp, warmed, 1); err != nil {
		t.Fatal(err)
	}
	priced, computed, st, m, err = resolveObserved(t, ctx, half, base, fp, cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertPricedLike(t, base, cfgs, priced)
	misses := n - len(warmed)
	if computed != misses || st.Misses != int64(misses) || st.Hits != int64(len(warmed)) || configsPriced(m) != int64(misses) {
		t.Fatalf("half-warm: computed %d, stats %+v, configs_priced %d; want %d priced and %d hits",
			computed, st, configsPriced(m), misses, len(warmed))
	}
	var grid *obs.StageManifest
	for i := range m.Stages {
		if m.Stages[i].Name == "price-grid" {
			grid = &m.Stages[i]
		}
	}
	if grid == nil || grid.Items != int64(misses) || grid.Workers != 3 {
		t.Fatalf("half-warm: price-grid span %+v, want %d items on 3 workers", grid, misses)
	}
	if files := entryFiles(t, half); len(files) != n {
		t.Fatalf("half-warm: %d entries on disk, want %d", len(files), n)
	}
}

func TestResolveGridRecomputesCorruptEntry(t *testing.T) {
	base, fp, cfgs := resolverGrid(t)
	ctx := context.Background()
	dir := t.TempDir()
	if _, _, _, _, err := resolveObserved(t, ctx, dir, base, fp, cfgs, 0); err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	priced, computed, st, m, err := resolveObserved(t, ctx, dir, base, fp, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertPricedLike(t, base, cfgs, priced)
	if computed != 1 || st.Corrupt != 1 || st.Hits != int64(len(cfgs)-1) || configsPriced(m) != 1 {
		t.Fatalf("computed %d, stats %+v, configs_priced %d; want the one corrupt entry recomputed", computed, st, configsPriced(m))
	}
	if got := entryFiles(t, dir); len(got) != len(cfgs) {
		t.Fatalf("%d entries on disk after the recompute, want %d", len(got), len(cfgs))
	}
}

// countingCtx counts Err calls and reports cancellation from call
// cancelAt on (never, when cancelAt is 0). Its Done channel is nil, so
// the cache runs disk operations synchronously and every check is
// one Err call, in program order.
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

func TestResolveGridCancelMidBatch(t *testing.T) {
	base, fp, cfgs := resolverGrid(t)

	// A full cold pass on one worker makes its Err calls in order: the
	// per-config lookups, then one per frame of the batch, then the
	// stores. With 48 frames against 8 configs, cancelling at the
	// midpoint lands inside the batch.
	full := &countingCtx{Context: context.Background()}
	if _, _, _, _, err := resolveObserved(t, full, t.TempDir(), base, fp, cfgs, 1); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx := &countingCtx{Context: context.Background(), cancelAt: full.calls / 2}
	priced, computed, st, m, err := resolveObserved(t, ctx, dir, base, fp, cfgs, 1)
	if !errors.Is(err, context.Canceled) || priced != nil || computed != 0 {
		t.Fatalf("priced=%v computed=%d err=%v, want context.Canceled", priced, computed, err)
	}
	if !strings.Contains(err.Error(), "pricing canceled at frame") {
		t.Fatalf("error %q: cancellation did not land inside the batch", err)
	}
	if ctx.calls != ctx.cancelAt {
		t.Fatalf("Err called %d times, want %d: work went on after the cancellation", ctx.calls, ctx.cancelAt)
	}
	if files := entryFiles(t, dir); len(files) != 0 || configsPriced(m) != 0 || st.Misses != int64(len(cfgs)) {
		t.Fatalf("%d entries on disk, configs_priced %d, stats %+v: a cancelled batch must store and count nothing",
			len(files), configsPriced(m), st)
	}
}

// PriceParent and PriceConfig are one-config calls of the resolver:
// with a binding they store under PriceKey, and a second call hits.
func TestPriceConfigIsOneConfigResolve(t *testing.T) {
	base, fp, cfgs := resolverGrid(t)
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun("resolver-test")
	ctx := cache.WithWorkload(run.Context(context.Background()), c, fp)
	for pass := 0; pass < 2; pass++ {
		sim, priced, err := PriceConfig(ctx, base, nil, cfgs[3], 3, len(cfgs))
		if err != nil {
			t.Fatal(err)
		}
		if sim.Config() != cfgs[3] {
			t.Fatalf("PriceConfig derived config %s, want %s", sim.Config().Name, cfgs[3].Name)
		}
		assertPricedLike(t, base, cfgs[3:4], []PricedParent{priced})
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want one miss then one hit", st)
	}
	if got := run.Finish().Metrics.Counters["sweep.configs_priced"]; got != 1 {
		t.Fatalf("configs_priced %d, want 1", got)
	}
	if _, ok := cache.Get[PricedParent](ctx, c, PriceKey(fp, cfgs[3])); !ok {
		t.Fatal("PriceConfig did not store under PriceKey")
	}
}
