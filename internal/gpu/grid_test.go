package gpu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

// foldDrawTotals is the per-config reference PriceGrid must reproduce:
// one pass per config, DrawTotals folded per draw into FrameNs and
// Totals, FrameNs folded per frame into TotalNs.
func foldDrawTotals(s *Simulator) PricedRun {
	run := PricedRun{FrameNs: make([]float64, len(s.w.Frames))}
	for fi := range s.w.Frames {
		f := &s.w.Frames[fi]
		var frameNs float64
		for di := range f.Draws {
			tn, cn, mn, tb := s.DrawTotals(&f.Draws[di])
			frameNs += tn
			run.Totals.TotalNs += tn
			run.Totals.ComputeNs += cn
			run.Totals.MemoryNs += mn
			run.Totals.TrafficBytes += tb
		}
		run.FrameNs[fi] = frameNs
		run.TotalNs += frameNs
	}
	return run
}

// runBitsDiff names the first value whose bits differ between a and
// b, or returns "" when the runs are identical.
func runBitsDiff(a, b PricedRun) string {
	if len(a.FrameNs) != len(b.FrameNs) {
		return fmt.Sprintf("%d frames != %d frames", len(a.FrameNs), len(b.FrameNs))
	}
	for i := range a.FrameNs {
		if math.Float64bits(a.FrameNs[i]) != math.Float64bits(b.FrameNs[i]) {
			return fmt.Sprintf("FrameNs[%d]: %v != %v", i, a.FrameNs[i], b.FrameNs[i])
		}
	}
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"TotalNs", a.TotalNs, b.TotalNs},
		{"Totals.TotalNs", a.Totals.TotalNs, b.Totals.TotalNs},
		{"Totals.ComputeNs", a.Totals.ComputeNs, b.Totals.ComputeNs},
		{"Totals.MemoryNs", a.Totals.MemoryNs, b.Totals.MemoryNs},
		{"Totals.TrafficBytes", a.Totals.TrafficBytes, b.Totals.TrafficBytes},
	} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Sprintf("%s: %v != %v", f.name, f.a, f.b)
		}
	}
	return ""
}

// gridConfigSets are the batches PriceGrid is held bit-exact on.
func gridConfigSets() map[string][]Config {
	var clockGrid []Config
	for _, cc := range []float64{0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0} {
		for _, mc := range []float64{0.6, 0.8, 1.0, 1.2} {
			clockGrid = append(clockGrid, BaseConfig().WithCoreClock(cc).WithMemClock(mc))
		}
	}
	quiet := BaseConfig()
	quiet.Name, quiet.NoiseAmp = "quiet", 0
	dup := BaseConfig().WithCoreClock(1.3)
	return map[string][]Config{
		"clock-grid": clockGrid,
		// Three texture-cache sizes, plus a 1 KB cache whose working
		// sets overflow (the math.Pow capacity branch) and a 128 B
		// line: five configs, four cache geometries.
		"tiers+geometry": append(Tiers(), smallCacheConfig(), func() Config {
			c := BaseConfig()
			c.Name, c.TexCacheLineB = "wideline", 128
			return c
		}()),
		"noise-free": {quiet, BaseConfig(), quiet},
		"duplicates": {dup, BaseConfig(), dup, dup},
		"single":     {LowPowerConfig()},
	}
}

// assertGridMatchesFold runs PriceGrid over cfgs at every worker count
// and compares each config's run bit for bit with the per-config fold.
func assertGridMatchesFold(t *testing.T, base *Simulator, cfgs []Config, where string) {
	t.Helper()
	want := make([]PricedRun, len(cfgs))
	for i, cfg := range cfgs {
		s, err := base.WithConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = foldDrawTotals(s)
	}
	for _, workers := range []int{1, 2, 3, 0} {
		got, err := base.PriceGrid(context.Background(), cfgs, workers)
		if err != nil {
			t.Fatalf("%s workers %d: %v", where, workers, err)
		}
		if len(got) != len(cfgs) {
			t.Fatalf("%s workers %d: %d runs for %d configs", where, workers, len(got), len(cfgs))
		}
		for i := range cfgs {
			if diff := runBitsDiff(got[i], want[i]); diff != "" {
				t.Fatalf("%s workers %d config %d (%s): %s", where, workers, i, cfgs[i].Name, diff)
			}
		}
	}
}

func TestPriceGridMatchesPerConfigFold(t *testing.T) {
	for _, w := range oracleWorkloads(t) {
		base, err := NewSimulator(BaseConfig(), w)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfgs := range gridConfigSets() {
			assertGridMatchesFold(t, base, cfgs, w.Name+" "+name)
		}
	}
}

// Subset draws are copies priced against the parent's resources: a
// workload whose frames are the subset's draws, sharing the parent's
// tables, must price through the batch exactly as draw by draw.
func TestPriceGridSubsetDraws(t *testing.T) {
	p := synth.Bioshock2Profile()
	p.Name = "gridsubset"
	p.Frames = 40
	w, err := tracetest.CachedWorkload(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sw := *w
	sw.Frames = make([]trace.Frame, len(sub.Frames))
	for i, f := range sub.Frames {
		sw.Frames[i] = trace.Frame{Draws: f.Draws}
	}
	base, err := NewSimulator(BaseConfig(), &sw)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfgs := range gridConfigSets() {
		assertGridMatchesFold(t, base, cfgs, "subset "+name)
	}
}

func TestPriceGridEdges(t *testing.T) {
	w := tracetest.Tiny()
	base, err := NewSimulator(BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := base.PriceGrid(context.Background(), nil, 0)
	if err != nil || len(runs) != 0 {
		t.Fatalf("empty grid: runs=%d err=%v", len(runs), err)
	}
	bad := BaseConfig()
	bad.CoreClockGHz = 0
	if _, err := base.PriceGrid(context.Background(), []Config{BaseConfig(), bad}, 1); err == nil {
		t.Fatal("PriceGrid accepted an invalid config")
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// n-th call on. PriceGrid on one worker calls Err once before its one
// group and then once before each frame, so n = 2+k cancels at frame k
// (0-based).
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

func TestPriceGridCancelsPerFrame(t *testing.T) {
	w := oracleWorkloads(t)[0]
	base, err := NewSimulator(BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), n: 2 + 3}
	runs, err := base.PriceGrid(ctx, gridConfigSets()["clock-grid"], 1)
	if !errors.Is(err, context.Canceled) || runs != nil {
		t.Fatalf("runs=%v err=%v, want context.Canceled", runs, err)
	}
	if want := fmt.Sprintf("frame 3/%d", len(w.Frames)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if ctx.calls != ctx.n {
		t.Fatalf("Err called %d times, want %d: pricing went on after the cancelled frame", ctx.calls, ctx.n)
	}
}

// A dangling reference panics in the kernel; on the grid path the
// worker pool turns it into an error naming the panic.
func TestPriceGridDanglingReferenceFails(t *testing.T) {
	w := *tracetest.Tiny()
	w.Frames = append([]trace.Frame(nil), w.Frames...)
	f := &w.Frames[0]
	f.Draws = append([]trace.DrawCall(nil), f.Draws...)
	f.Draws[0].RT = 0
	base, err := NewSimulator(BaseConfig(), &w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.PriceGrid(context.Background(), []Config{BaseConfig()}, 1); err == nil || !strings.Contains(err.Error(), "unknown render target") {
		t.Fatalf("err = %v, want the dangling render target named", err)
	}
}
