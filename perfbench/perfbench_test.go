package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
)

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 samples = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 samples = %v, want 2.5", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0}, {5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}

	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i) // 20 down to 1: summarize must sort
	}
	s := summarize(xs)
	if s.N != 20 || s.Median != 10.5 || s.Tail != "p50" || s.TailValue != 10 {
		t.Errorf("summarize(1..20) = %+v, want n 20, median 10.5, p50 = 10", s)
	}
	s = summarize([]float64{0.3, 0.1, 0.2})
	if s.N != 3 || s.Median != 0.2 || s.Tail != "max" || s.TailValue != 0.3 {
		t.Errorf("summarize of 3 samples = %+v, want median 0.2 and max 0.3", s)
	}
	xs = make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.Tail != "p90" || s.TailValue != 90 {
		t.Errorf("summarize(1..100) tail = %s %v, want p90 90", s.Tail, s.TailValue)
	}
}

func TestSelfTimeOnNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.child", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},       // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},      // runs past the parent
		{ID: 6, Parent: 0, Name: "probe", Start: 100, End: 150}, // not a child
	}
	for _, c := range []struct {
		id   int
		want int64
	}{
		{1, 100 - 50 - 10}, // children cover [10,60] and [90,100]
		{2, 30 - 5},
		{3, 5},
		{5, 30},
	} {
		got, err := selfTime(spans, c.id)
		if err != nil || got != c.want {
			t.Errorf("selfTime(span %d) = %d, %v; want %d", c.id, got, err, c.want)
		}
	}
	if _, err := selfTime(spans, 9); err == nil {
		t.Error("selfTime of an unrecorded span succeeded")
	}
}

func TestRecorderTotalsAndReplay(t *testing.T) {
	rec := newRecorder()
	root := rec.start("bench.iteration", 0, 7)
	p := &replay{rec: rec, parent: root, iter: 7}
	p.step("sweep.price_config", func() error { return nil })
	p.step("sweep.price_config", func() error { return os.ErrNotExist })
	p.step("shard.merge", func() error { t.Error("a step ran after a failed one"); return nil })
	rec.end(root)
	if p.err == nil || !strings.Contains(p.err.Error(), "sweep.price_config") {
		t.Errorf("replay error = %v, want the failed step named", p.err)
	}
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	want := float64(spans[1].dur()+spans[2].dur()) / 1e9
	if got := rec.total(7, "sweep.price_config"); got != want {
		t.Errorf("total = %v, want %v", got, want)
	}
	if got := rec.total(8, "sweep.price_config"); got != 0 {
		t.Errorf("total of another iteration = %v, want 0", got)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric %q breaks the name grammar", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "a:b", "ü", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q passes the grammar", bad)
		}
	}
	for _, good := range []string{"iter_s", "trace.decode_s", "p-99", "9x", strings.Repeat("a", 64)} {
		if !metricName.MatchString(good) {
			t.Errorf("name %q fails the grammar", good)
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric and workload lists the
// benchmark prints in step with the BENCHMARK.json beside the repo root.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	same := func(kind string, json, code []metricDef) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(json), len(code))
			return
		}
		for i := range code {
			if json[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, json[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestWrongOutputCountsAsFailed(t *testing.T) {
	in := &input{manifest: []byte("manifest"), table: []byte("table"), report: []byte("report"), subsetDigest: "d"}
	var tl tally
	tl.add(outcome{secs: 1, err: checkSweep(in, []byte("manifest"), []byte("table"))})
	tl.add(outcome{secs: 2, err: checkSweep(in, []byte("manifesT"), []byte("table"))})
	tl.add(outcome{secs: 3, err: checkSweep(in, []byte("manifest"), []byte("tablE"))})
	tl.add(outcome{secs: 4, err: checkSubset(in, []byte("report"), "other digest")})
	tl.add(outcome{secs: 5, err: checkWarm(cache.Stats{Hits: 31, Misses: 1})})
	if tl.attempted != 5 || tl.failed != 4 {
		t.Fatalf("attempted %d, failed %d; want 5 and 4", tl.attempted, tl.failed)
	}
	if len(tl.secs) != 1 || tl.secs[0] != 1 {
		t.Errorf("timed samples %v, want only the correct iteration's", tl.secs)
	}
	if !strings.Contains(tl.firstFailure, "run manifest differs") {
		t.Errorf("first failure %q, want the manifest mismatch", tl.firstFailure)
	}
	r, err := newResult(&tl, endToEnd, map[string]float64{"iter_s": 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 5 || r.Failed != 4 {
		t.Errorf("result %+v, want incorrect with 5 attempted and 4 failed", r)
	}
}
