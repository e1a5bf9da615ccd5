// Command perfbench is the pipeline's end-to-end benchmark. One client
// runs iterations back to back (a closed loop), each from encoded trace
// bytes in to a verified report or sweep table out, on a bioshock1 trace
// generated from --seed. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced iterations with traced
// ones that record a span around every public call and prints the
// per-layer metrics. See README.md beside this file.
//
//	bash perfbench/run.sh --workload subset --seed 42 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

func parseArgs(args []string) (options, error) {
	var opt options
	var secs float64
	var traced int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "subset", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&opt.seed, "seed", 42, "seed the bioshock1 trace is generated from")
	fs.Float64Var(&secs, "seconds", 10, "how long to run iterations, in seconds")
	fs.IntVar(&traced, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if !slices.Contains(workloadNames, opt.workload) {
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	if secs <= 0 || traced < 0 || traced > 1 {
		return opt, fmt.Errorf("--seconds must be > 0 and --trace 0 or 1")
	}
	opt.seconds = time.Duration(secs * float64(time.Second))
	opt.trace = traced == 1
	return opt, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(context.Background(), opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir holds everything a run writes, inside the checkout.
var outDir = filepath.Join(".bench_build", "perfbench")

func run(ctx context.Context, opt options, stdout io.Writer) error {
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	cal := &calibration{}
	cal.sample()
	in, setupSecs, err := setup(ctx, opt.workload, opt.seed, work, cal)
	if err != nil {
		return err
	}
	detail := map[string]any{
		"workload": opt.workload,
		"seed":     opt.seed,
		"load":     "closed loop, 1 client",
		"host":     hostFacts(),
		"input":    map[string]any{"profile": "bioshock1", "frames": len(in.w.Frames), "draws": in.w.NumDraws(), "encoded_bytes": len(in.encoded)},
		"digests":  referenceDigests(in),
	}
	if opt.workload == "fleet" {
		detail["load"] = fmt.Sprintf("closed loop, 1 client, %d in-process subsetd workers", fleetWorkers)
	}

	var res result
	if opt.trace {
		res, err = measureTraced(ctx, opt, in, work, cal, detail)
	} else {
		res, err = measure(ctx, opt, in, work, setupSecs, cal, detail)
	}
	if err != nil {
		return err
	}
	return printResult(stdout, detail, res)
}

// tally accumulates a run's iterations. A failed or wrong iteration is
// counted in attempted and failed and contributes no timing.
type tally struct {
	attempted, failed int
	firstFailure      string
	secs, alloc       []float64
	acc               *accuracy
}

func (t *tally) add(o outcome) {
	t.attempted++
	if o.err != "" {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = o.err
		}
		return
	}
	t.secs = append(t.secs, o.secs)
	t.alloc = append(t.alloc, o.allocMB)
	if o.acc != nil {
		t.acc = o.acc
	}
}

func (t *tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// iterate runs one untraced iteration of the workload.
func iterate(ctx context.Context, workload string, in *input, work string, iter int) outcome {
	switch workload {
	case "subset":
		return subsetIter(ctx, in)
	case "fleet":
		return fleetIter(ctx, in, work)
	default:
		return gridIter(ctx, in, work, iter)
	}
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(t *tally, defs []metricDef, values map[string]float64) (result, error) {
	r := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return r, fmt.Errorf("metric name %q breaks the name grammar", d.Name)
		}
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// measure is the untraced run: iterations back to back for the run's
// seconds, at least one, with a calibration sample after each. Times are
// reported at reference-host speed (see calibrate.go); the raw seconds
// are printed with the details.
func measure(ctx context.Context, opt options, in *input, work string, setupSecs []float64, cal *calibration, detail map[string]any) (result, error) {
	t := &tally{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < opt.seconds; i++ {
		t.add(iterate(ctx, opt.workload, in, work, i))
		cal.sample()
	}
	if len(t.secs) == 0 {
		return result{}, fmt.Errorf("all %d iterations failed; first: %s", t.attempted, t.firstFailure)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	scale := cal.scale()
	detail["reference_host_scale"] = scale
	detail["samples"] = map[string]summary{
		"raw_iter_s":    summarize(t.secs),
		"raw_setup_s":   summarize(setupSecs),
		"calibration_s": summarize(cal.samples),
		"alloc_mb":      summarize(t.alloc),
	}
	detail["failed_ratio"] = t.failedRatio()
	if t.firstFailure != "" {
		detail["first_failure"] = t.firstFailure
	}
	if t.acc != nil {
		detail["accuracy"] = t.acc
	}
	return newResult(t, endToEnd, map[string]float64{
		"iter_s":      median(t.secs) * scale,
		"setup_s":     median(setupSecs) * scale,
		"peak_rss_mb": rss,
		"alloc_mb":    median(t.alloc),
	})
}

// measureTraced is the traced run: untraced and traced iterations
// alternate for the run's seconds, at least one of each. Per-layer
// values are medians over the traced iterations; the untraced ones only
// give the tracing overhead. The spans are written out at the end.
func measureTraced(ctx context.Context, opt options, in *input, work string, cal *calibration, detail map[string]any) (result, error) {
	rec := newRecorder()
	plain, traced := &tally{}, &tally{}
	var perIter []map[string]float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < opt.seconds; i++ {
		plain.add(iterate(ctx, opt.workload, in, work, -1-i))
		cal.sample()
		o, vals := tracedIter(ctx, opt.workload, in, work, rec, i)
		traced.add(o)
		if o.err == "" {
			perIter = append(perIter, vals)
		}
	}
	if len(perIter) == 0 || len(plain.secs) == 0 {
		return result{}, fmt.Errorf("no traced iteration succeeded; first failure: %s%s", traced.firstFailure, plain.firstFailure)
	}
	values := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, v := range perIter {
			xs = append(xs, v[d.Name])
		}
		values[d.Name] = median(xs)
	}
	values["bench.trace_overhead_ratio"] = median(traced.secs) / median(plain.secs)
	values["bench.calibration_s"] = median(cal.samples)

	spans := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	if err := rec.write(spans); err != nil {
		return result{}, err
	}
	detail["spans_file"] = spans
	detail["samples"] = map[string]summary{"traced_iter_s": summarize(traced.secs), "untraced_iter_s": summarize(plain.secs)}
	detail["failed_ratio"] = float64(plain.failed+traced.failed) / float64(plain.attempted+traced.attempted)
	if f := traced.firstFailure + plain.firstFailure; f != "" {
		detail["first_failure"] = f
	}
	merged := &tally{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	return newResult(merged, perLayer, values)
}

// spanMetrics maps per-layer metrics to the replay span they total.
var spanMetrics = map[string]string{
	"trace.decode_s":       "trace.decode",
	"trace.fingerprint_s":  "trace.fingerprint",
	"sweep.price_config_s": "sweep.price_config",
	"sweep.validation_s":   "sweep.validation",
	"metrics.eval_s":       "metrics.eval",
	"subset.build_s":       "subset.build",
}

// tracedIter runs one traced iteration under a "bench.iteration" span,
// then the probes outside it, and returns the iteration's per-layer
// values. Starting and stopping a fleet stays outside the span, as it
// stays outside the untraced timing.
func tracedIter(ctx context.Context, workload string, in *input, work string, rec *recorder, iter int) (outcome, map[string]float64) {
	var (
		f   *fleet
		st  *serverTrace
		dir = in.warmDir
	)
	switch workload {
	case "fleet":
		st = &serverTrace{rec: rec, iter: iter}
		var err error
		if f, err = startFleet(work, st.wrap); err != nil {
			return failed(err), nil
		}
		defer f.stop()
	case "grid-cold":
		dir = filepath.Join(work, fmt.Sprintf("traced-cold-%d", iter))
		defer os.RemoveAll(dir)
	}

	root := rec.start("bench.iteration", 0, iter)
	p := &replay{rec: rec, parent: root, iter: iter}
	var o outcome
	vals := map[string]float64{}
	switch workload {
	case "subset":
		o = subsetReplay(ctx, in, p)
	case "fleet":
		o, vals = fleetReplay(ctx, in, f, st, p)
	default:
		o = gridReplay(ctx, in, dir, p)
		if o.err == "" && workload == "grid-warm" {
			o.err = checkWarm(o.cache)
		}
	}
	rec.end(root)
	o.secs = float64(rec.get(root).dur()) / 1e9
	if o.err != "" {
		return o, nil
	}

	for metric, name := range spanMetrics {
		vals[metric] = rec.total(iter, name)
	}
	self, err := selfTime(rec.snapshot(), root)
	if err != nil {
		return failed(err), nil
	}
	vals["bench.unattributed_s"] = float64(self) / 1e9
	draws := float64(in.w.NumDraws())
	if workload != "subset" {
		c := o.cache
		vals["cache.hits"], vals["cache.misses"], vals["cache.disk_hits"] = float64(c.Hits), float64(c.Misses), float64(c.DiskHits)
		vals["cache.corrupt"], vals["cache.errors"], vals["cache.dir_bytes"] = float64(c.Corrupt), float64(c.Errors), float64(o.dirSize)
		if c.Hits+c.Misses > 0 {
			vals["cache.hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
		}
	}
	if workload == "grid-cold" || workload == "grid-warm" {
		vals["sweep.draws_priced"] = float64(o.cache.Misses) * draws
	}
	if a := o.acc; a != nil {
		vals["metrics.pred_error_pct"], vals["metrics.cluster_eff_pct"], vals["metrics.outlier_pct"] = a.PredErrorPct, a.ClusterEffPct, a.OutlierPct
		vals["subset.size_pct"], vals["sweep.speedup_r"] = a.SubsetSizePct, a.SpeedupR
	}
	pv, err := probes(ctx, in.w, &replay{rec: rec, iter: iter})
	if err != nil {
		return failed(err), nil
	}
	for k, v := range pv {
		vals[k] = v
	}
	return o, vals
}

// printResult prints the run's details as one JSON line, then the
// result as the last line.
func printResult(stdout io.Writer, detail map[string]any, res result) error {
	w := bufio.NewWriter(stdout)
	for _, v := range []any{detail, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		w.Write(append(line, '\n'))
	}
	return w.Flush()
}

// hostFacts are printed with every run so results can be placed.
func hostFacts() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
	}
}

func referenceDigests(in *input) map[string]string {
	d := map[string]string{"input": digest(in.encoded)}
	if in.report != nil {
		d["report"], d["subset"] = digest(in.report), in.subsetDigest
	} else {
		d["manifest"], d["table"] = digest(in.manifest), digest(in.table)
	}
	return d
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// metricName is the grammar every metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var endToEnd = []metricDef{
	{"iter_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"trace.decode_s", "s", "lower"},
	{"trace.fingerprint_s", "s", "lower"},
	{"trace.validate_s", "s", "lower"},
	{"gpu.new_simulator_s", "s", "lower"},
	{"features.new_extractor_s", "s", "lower"},
	{"subset.new_clusterer_s", "s", "lower"},
	{"gpu.draw_ns", "ns", "lower"},
	{"sweep.price_config_s", "s", "lower"},
	{"sweep.draws_priced", "count", "lower"},
	{"sweep.validation_s", "s", "lower"},
	{"metrics.eval_s", "s", "lower"},
	{"subset.build_s", "s", "lower"},
	{"features.extract_ns_per_draw", "ns", "lower"},
	{"subset.cluster_ns_per_draw", "ns", "lower"},
	{"phase.detect_s", "s", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.disk_hits", "count", "higher"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.corrupt", "count", "lower"},
	{"cache.errors", "count", "lower"},
	{"cache.dir_bytes", "B", "lower"},
	{"shard.plan_s", "s", "lower"},
	{"coord.register_s", "s", "lower"},
	{"coord.sweep_s", "s", "lower"},
	{"coord.merge_s", "s", "lower"},
	{"coord.queue_wait_s", "s", "lower"},
	{"coord.attempt_s", "s", "lower"},
	{"coord.worker_busy_max_s", "s", "lower"},
	{"coord.worker_imbalance", "ratio", "lower"},
	{"coord.attempts", "count", "lower"},
	{"coord.retries", "count", "lower"},
	{"coord.steals", "count", "lower"},
	{"coord.duplicates", "count", "lower"},
	{"coord.useful_ratio", "ratio", "higher"},
	{"serve.upload_s", "s", "lower"},
	{"serve.shard_sweep_s", "s", "lower"},
	{"serve.transport_s", "s", "lower"},
	{"serve.upload_bytes", "B", "lower"},
	{"serve.manifest_bytes", "B", "lower"},
	{"serve.shed", "count", "lower"},
	{"metrics.pred_error_pct", "%", "lower"},
	{"metrics.cluster_eff_pct", "%", "higher"},
	{"metrics.outlier_pct", "%", "lower"},
	{"subset.size_pct", "%", "lower"},
	{"sweep.speedup_r", "r", "higher"},
	{"bench.unattributed_s", "s", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.calibration_s", "s", "lower"},
}
