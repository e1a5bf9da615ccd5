package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/shard"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"subset", "grid-cold", "grid-warm", "fleet"}

// outcome is one iteration: its host time and allocation, and whether
// its output matched the reference. A failed call or a wrong output
// sets err; either way the iteration counts as attempted and failed.
type outcome struct {
	secs    float64
	allocMB float64
	err     string
	acc     *accuracy
	cache   cache.Stats
	dirSize int64
}

func failed(err error) outcome { return outcome{err: err.Error()} }

// accuracy is the subset's quality against a full simulation of the
// parent, as the report prints it (percentages, r as a fraction).
type accuracy struct {
	PredErrorPct  float64 `json:"pred_error_pct"`
	ClusterEffPct float64 `json:"cluster_eff_pct"`
	OutlierPct    float64 `json:"outlier_pct"`
	SubsetSizePct float64 `json:"subset_size_pct"`
	SpeedupR      float64 `json:"speedup_r"`
}

func accuracyOf(rep *core.Report) *accuracy {
	return &accuracy{
		PredErrorPct:  rep.Clustering.MeanError * 100,
		ClusterEffPct: rep.Clustering.MeanEfficiency * 100,
		OutlierPct:    rep.Clustering.OutlierRate * 100,
		SubsetSizePct: rep.SizeRatio * 100,
		SpeedupR:      rep.Validation.Correlation,
	}
}

// meter times a region and the bytes the process allocated in it. It
// collects garbage before the region starts, so every iteration starts
// from the same heap, as a fresh process would.
type meter struct {
	t0    time.Time
	alloc uint64
}

func startMeter() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), alloc: ms.TotalAlloc}
}

func (m meter) stop(o *outcome) {
	o.secs = time.Since(m.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.allocMB = float64(ms.TotalAlloc-m.alloc) / (1 << 20)
}

// checkSubset compares a subset iteration's output with the reference.
func checkSubset(in *input, report []byte, digest string) string {
	if !bytes.Equal(report, in.report) {
		return "subset report differs from the reference"
	}
	if digest != in.subsetDigest {
		return "subset digest differs from the reference"
	}
	return ""
}

// checkSweep compares a grid or fleet iteration's output with the
// no-cache sequential reference.
func checkSweep(in *input, manifest, table []byte) string {
	if !bytes.Equal(manifest, in.manifest) {
		return "run manifest differs from the no-cache sequential reference"
	}
	if !bytes.Equal(table, in.table) {
		return "sweep table differs from the no-cache sequential reference"
	}
	return ""
}

// subsetIter is one untraced subset iteration: what subset3d does by
// default, from trace bytes to rendered report.
func subsetIter(ctx context.Context, in *input) outcome {
	var o outcome
	m := startMeter()
	sub, err := core.New(core.DefaultOptions())
	if err != nil {
		return failed(err)
	}
	w, err := trace.Decode(bytes.NewReader(in.encoded))
	if err != nil {
		return failed(err)
	}
	rep, err := sub.RunContext(ctx, w)
	if err != nil {
		return failed(err)
	}
	report := renderReport(rep)
	m.stop(&o)
	o.err = checkSubset(in, report, subsetDigest(rep.Subset))
	o.acc = accuracyOf(rep)
	return o
}

// gridPass is one untraced sweep over the cache directory dir: what a
// gpusim -grid-* invocation with that -cache-dir does. An empty dir
// makes it a cold pass; a filled one a warm pass.
func gridPass(ctx context.Context, in *input, dir string) outcome {
	var o outcome
	m := startMeter()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		return failed(err)
	}
	w, err := trace.Decode(bytes.NewReader(in.encoded))
	if err != nil {
		return failed(err)
	}
	rm, err := shard.RunSequential(ctx, c, w, gridConfigs())
	if err != nil {
		return failed(err)
	}
	enc, table, err := renderManifest(rm)
	if err != nil {
		return failed(err)
	}
	m.stop(&o)
	o.err = checkSweep(in, enc, table)
	o.cache = c.Stats()
	o.dirSize = dirSize(dir)
	return o
}

// gridIter is one untraced grid iteration: a cold pass on a new, empty
// directory, or a warm pass on set-up's filled one.
func gridIter(ctx context.Context, in *input, work string, iter int) outcome {
	if in.warmDir != "" {
		o := gridPass(ctx, in, in.warmDir)
		if o.err == "" {
			o.err = checkWarm(o.cache)
		}
		return o
	}
	dir := filepath.Join(work, fmt.Sprintf("cold-%d", iter))
	defer os.RemoveAll(dir)
	return gridPass(ctx, in, dir)
}

// checkWarm requires a warm pass to be served entirely from the disk
// tier: it prices nothing.
func checkWarm(st cache.Stats) string {
	n := int64(len(gridCore) * len(gridMem))
	if st.Hits != n || st.Misses != 0 {
		return fmt.Sprintf("warm pass: %d hits, %d misses, want %d hits and no misses", st.Hits, st.Misses, n)
	}
	return ""
}

// subsetReplay is the traced subset iteration: core.Subsetter.RunContext
// with core.DefaultOptions (strict, no cache) replayed as the public
// calls it is written as, one span each, then Report.Render.
func subsetReplay(ctx context.Context, in *input, p *replay) outcome {
	opt := core.DefaultOptions()
	var (
		w   *trace.Workload
		sim *gpu.Simulator
		fc  *subset.FrameClusterer
		out []byte
		rep = &core.Report{}
	)
	p.step("trace.decode", func() (err error) {
		w, err = trace.Decode(bytes.NewReader(in.encoded))
		return err
	})
	p.step("trace.validate", func() error { return w.Validate() })
	p.step("trace.summarize", func() error { rep.Summary = trace.Summarize(w); return nil })
	p.step("gpu.new_simulator", func() (err error) {
		sim, err = gpu.NewSimulator(opt.Oracle, w)
		return err
	})
	p.step("subset.new_clusterer", func() (err error) {
		fc, err = subset.NewFrameClusterer(w, opt.Subset.Method)
		return err
	})
	p.step("metrics.eval", func() error {
		wr, err := metrics.EvaluateWorkloadContext(ctx, sim, w, fc, opt.OutlierThreshold, opt.Workers)
		rep.Clustering = &wr
		return err
	})
	p.step("subset.build", func() (err error) {
		rep.Subset, err = subset.BuildContext(ctx, w, opt.Subset)
		return err
	})
	p.step("subset.validate", func() error {
		rep.Detection, rep.SizeRatio = rep.Subset.Detection, rep.Subset.SizeRatio()
		return rep.Subset.Validate()
	})
	p.step("sweep.validation", func() (err error) {
		rep.Validation, err = sweep.RunParallel(ctx, w, rep.Subset, sweep.CoreClockSweep(opt.Oracle, opt.ValidationClocks), opt.Workers)
		rep.Validated = err == nil
		return err
	})
	p.step("core.render", func() error { out = renderReport(rep); return nil })
	if p.err != nil {
		return failed(p.err)
	}
	return outcome{err: checkSubset(in, out, subsetDigest(rep.Subset)), acc: accuracyOf(rep)}
}

// gridReplay is the traced grid pass: shard.RunSequential replayed as
// the public calls it is written as, one span per call and per priced
// config. Its fold goes through shard.Merge of a one-shard manifest,
// the same fold RunSequential uses.
func gridReplay(ctx context.Context, in *input, dir string, p *replay) outcome {
	cfgs := gridConfigs()
	var (
		c          *cache.Cache
		w          *trace.Workload
		fp         trace.Fingerprint
		tasks      []shard.Task
		grid       shard.GridDigest
		base       *gpu.Simulator
		rm         *shard.RunManifest
		enc, table []byte
	)
	p.step("cache.open", func() (err error) {
		c, err = cache.New(cache.Config{Dir: dir})
		return err
	})
	p.step("trace.decode", func() (err error) {
		w, err = trace.Decode(bytes.NewReader(in.encoded))
		return err
	})
	p.step("trace.fingerprint", func() error { fp = w.Fingerprint(); return nil })
	p.step("shard.plan", func() (err error) {
		tasks, grid, err = shard.Plan(fp, cfgs)
		return err
	})
	p.step("gpu.new_simulator", func() (err error) {
		base, err = gpu.NewSimulator(cfgs[0], w)
		return err
	})
	m := &shard.Manifest{Version: shard.ManifestVersion, Workload: fp, Grid: grid, GridSize: len(tasks), Shard: shard.Spec{Count: 1}}
	cctx := cache.WithWorkload(ctx, c, fp)
	for _, t := range tasks {
		p.step("sweep.price_config", func() error {
			_, priced, err := sweep.PriceConfig(cctx, base, w, t.Config, t.Seq, len(tasks))
			if err != nil {
				return err
			}
			m.Entries = append(m.Entries, shard.Entry{
				Seq:          t.Seq,
				CoreClockGHz: t.Config.CoreClockGHz,
				MemClockGHz:  t.Config.MemClockGHz,
				ConfigFP:     t.Config.Fingerprint(),
				Key:          t.Key,
				Frames:       len(priced.FrameNs),
				FrameDigest:  frameDigest(priced.FrameNs),
				TotalNs:      priced.TotalNs,
				Totals:       priced.Totals,
			})
			return nil
		})
	}
	p.step("shard.merge", func() (err error) {
		rm, err = shard.Merge([]*shard.Manifest{m})
		return err
	})
	p.step("shard.render", func() (err error) {
		enc, table, err = renderManifest(rm)
		return err
	})
	if p.err != nil {
		return failed(p.err)
	}
	return outcome{err: checkSweep(in, enc, table), cache: c.Stats(), dirSize: dirSize(dir)}
}

// probeSink keeps probe results alive so no call is optimised away.
var probeSink float64

// probes times, on set-up's workload and outside any iteration span,
// the unit costs the pipeline's stages repeat: one validation, each
// constructor that validates again, and a full pass of the pricing,
// feature and clustering kernels. Values are keyed by metric name.
func probes(ctx context.Context, w *trace.Workload, p *replay) (map[string]float64, error) {
	var (
		sim   *gpu.Simulator
		ex    *features.Extractor
		fc    *subset.FrameClusterer
		fp    = w.Fingerprint()
		draws = float64(w.NumDraws())
	)
	p.step("probe.trace.validate", w.Validate)
	p.step("probe.gpu.new_simulator", func() (err error) {
		sim, err = gpu.NewSimulator(gpu.BaseConfig(), w)
		return err
	})
	p.step("probe.features.new_extractor", func() (err error) {
		ex, err = features.NewExtractor(w)
		return err
	})
	p.step("probe.subset.new_clusterer", func() (err error) {
		fc, err = subset.NewFrameClusterer(w, subset.DefaultMethod())
		return err
	})
	p.step("probe.gpu.frame_ns", func() error {
		for i := range w.Frames {
			probeSink += sim.FrameNs(&w.Frames[i])
		}
		return nil
	})
	p.step("probe.features.frame_into", func() error {
		var m *linalg.Matrix
		for i := range w.Frames {
			m = ex.FrameInto(&w.Frames[i], m)
		}
		probeSink += m.Data[0]
		return nil
	})
	p.step("probe.subset.cluster_frames", func() error {
		cfs, err := fc.ClusterFrames(ctx, w.Frames, nil, 0)
		probeSink += float64(len(cfs))
		return err
	})
	p.step("probe.phase.detect", func() error {
		det, err := phase.DetectContext(ctx, w, subset.DefaultOptions().Phase, 0)
		probeSink += float64(det.NumPhases)
		return err
	})
	p.step("probe.shard.plan", func() error {
		tasks, _, err := shard.Plan(fp, gridConfigs())
		probeSink += float64(len(tasks))
		return err
	})
	if p.err != nil {
		return nil, p.err
	}
	t := func(name string) float64 { return p.rec.total(p.iter, name) }
	return map[string]float64{
		"trace.validate_s":             t("probe.trace.validate"),
		"gpu.new_simulator_s":          t("probe.gpu.new_simulator"),
		"features.new_extractor_s":     t("probe.features.new_extractor"),
		"subset.new_clusterer_s":       t("probe.subset.new_clusterer"),
		"gpu.draw_ns":                  t("probe.gpu.frame_ns") * 1e9 / draws,
		"features.extract_ns_per_draw": t("probe.features.frame_into") * 1e9 / draws,
		"subset.cluster_ns_per_draw":   t("probe.subset.cluster_frames") * 1e9 / draws,
		"phase.detect_s":               t("probe.phase.detect"),
		"shard.plan_s":                 t("probe.shard.plan"),
	}, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
