// Package core is the paper's contribution assembled end-to-end: the
// Subsetter extracts a representative subset from a 3D workload by
// combining draw-call clustering (intra-frame) with shader-vector
// phase detection (inter-frame), evaluates the clustering with the
// paper's quality metrics, and validates the subset by checking that
// its frequency-scaling behaviour tracks the parent workload.
//
// Typical use:
//
//	w, _ := synth.Generate(synth.Bioshock1Profile(), seed)
//	sub, _ := core.New(core.DefaultOptions())
//	report, _ := sub.Run(w)
//	report.Render(os.Stdout)
//
// The report carries everything a pathfinding study needs: the subset
// itself (report.Subset), its size ratio, per-frame clustering quality,
// the phase structure, and the validation sweep.
package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// Options configures the full pipeline.
type Options struct {
	// Subset carries the clustering method and phase-detection options.
	Subset subset.Options

	// OutlierThreshold defines cluster outliers (paper: 0.20).
	OutlierThreshold float64

	// Oracle is the GPU configuration used as the cost oracle for
	// clustering evaluation and as the base of the validation sweep.
	Oracle gpu.Config

	// ValidationClocks is the core-clock sweep used to validate the
	// subset. At least two clocks; nil disables validation.
	ValidationClocks []float64

	// SkipClusteringEval disables the per-frame clustering evaluation
	// (which prices every draw of every frame — the expensive part)
	// when only the subset is wanted.
	SkipClusteringEval bool

	// Workers bounds the goroutine fan-out of every pipeline stage:
	// clustering evaluation, phase detection, subset clustering and the
	// validation sweep (<= 0 selects GOMAXPROCS, 1 runs fully
	// sequential). It governs wall-clock time only — the Report is
	// bit-identical at any worker count, an invariant the determinism
	// tests assert. Workers overrides Subset.Workers for the stages Run
	// drives.
	Workers int

	// Obs attaches an observability run: every pipeline stage then
	// records a span (wall time, item counts, worker occupancy) and
	// feeds the run's metrics registry. Nil — the default — is a
	// complete no-op, and observability never changes results either
	// way: timings live only in the obs structures, never in the
	// Report, an invariant the determinism tests assert.
	Obs *obs.Run

	// Cache attaches a content-addressed result cache spanning every
	// pipeline stage: per-frame feature matrices, per-frame
	// clusterings, phase shader vectors and per-config parent pricing
	// are served by (workload fingerprint, options, algorithm version)
	// instead of recomputed. Nil — the default — disables caching.
	// Caching never changes results: a warm run's Report is
	// byte-identical to a cold run's, an invariant the golden and
	// determinism tests assert.
	Cache *cache.Cache
}

// DefaultOptions returns the experiment configuration.
func DefaultOptions() Options {
	return Options{
		Subset:           subset.DefaultOptions(),
		OutlierThreshold: metrics.DefaultOutlierThreshold,
		Oracle:           gpu.BaseConfig(),
		ValidationClocks: sweep.DefaultCoreClocks(),
	}
}

// Subsetter runs the pipeline. Construct with New.
type Subsetter struct {
	opt Options
}

// New validates the options.
func New(opt Options) (*Subsetter, error) {
	if err := opt.Oracle.Validate(); err != nil {
		return nil, err
	}
	if opt.OutlierThreshold <= 0 {
		return nil, fmt.Errorf("core: outlier threshold %v <= 0", opt.OutlierThreshold)
	}
	if len(opt.ValidationClocks) == 1 {
		return nil, fmt.Errorf("core: validation sweep needs >= 2 clocks")
	}
	return &Subsetter{opt: opt}, nil
}

// Report is the outcome of one pipeline run.
type Report struct {
	// Summary describes the input workload.
	Summary trace.Summary

	// Clustering is the per-frame quality evaluation (nil when
	// SkipClusteringEval was set).
	Clustering *metrics.WorkloadReport

	// Detection is the phase structure.
	Detection phase.Detection

	// Subset is the deliverable.
	Subset *subset.Subset

	// SizeRatio is subset draws / parent draws.
	SizeRatio float64

	// Validation is the frequency-scaling check (zero value when
	// validation was disabled).
	Validation sweep.Result
	Validated  bool

	// Diagnostics accounts for draws and frames lenient decoding
	// dropped (trace.ReadWorkload). Run never repairs a workload, so
	// the caller that decoded it fills this in; Render then reports it.
	Diagnostics traceerr.Diagnostics
}

// Run executes the pipeline on one workload.
func (s *Subsetter) Run(w *trace.Workload) (*Report, error) {
	return s.RunContext(context.Background(), w)
}

// RunContext executes the pipeline on one workload, honoring
// cancellation between pipeline stages and inside the validation
// sweep. The workload is taken on trust: it was validated (or
// leniently repaired) where it entered (see trace.Workload).
func (s *Subsetter) RunContext(ctx context.Context, w *trace.Workload) (*Report, error) {
	if s.opt.Obs != nil && obs.RunFromContext(ctx) == nil {
		ctx = s.opt.Obs.Context(ctx)
	}
	run := obs.RunFromContext(ctx)

	rep := &Report{Summary: trace.Summarize(w)}
	run.Logger().Info("workload ready", "workload", w.Name,
		"frames", rep.Summary.Frames, "draws", rep.Summary.Draws)

	// Bind the cache once: every downstream stage shares the binding.
	if s.opt.Cache != nil {
		if _, _, bound := cache.ForWorkload(ctx); !bound {
			_, fsp := obs.StartSpan(ctx, "fingerprint")
			fp := w.Fingerprint()
			fsp.End()
			ctx = cache.WithWorkload(ctx, s.opt.Cache, fp)
		}
	}

	if !s.opt.SkipClusteringEval {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: canceled before clustering evaluation: %w", err)
		}
		sim, err := gpu.NewSimulator(s.opt.Oracle, w)
		if err != nil {
			return nil, err
		}
		fc, err := subset.NewFrameClusterer(w, s.opt.Subset.Method)
		if err != nil {
			return nil, err
		}
		wr, err := metrics.EvaluateWorkloadContext(ctx, sim, w, fc, s.opt.OutlierThreshold, s.opt.Workers)
		if err != nil {
			return nil, err
		}
		rep.Clustering = &wr
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: canceled before subset build: %w", err)
	}
	sopt := s.opt.Subset
	if s.opt.Workers != 0 {
		sopt.Workers = s.opt.Workers
	}
	if sopt.Cache == nil {
		sopt.Cache = s.opt.Cache
	}
	sub, err := subset.BuildContext(ctx, w, sopt)
	if err != nil {
		return nil, err
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("core: built subset invalid: %w", err)
	}
	rep.Subset = sub
	rep.Detection = sub.Detection
	rep.SizeRatio = sub.SizeRatio()
	run.Metrics().Counter("subset.frames").Add(int64(len(sub.Frames)))
	run.Metrics().Counter("subset.draws").Add(int64(sub.NumDraws()))

	if len(s.opt.ValidationClocks) >= 2 {
		res, err := sweep.RunParallel(ctx, w, sub, sweep.CoreClockSweep(s.opt.Oracle, s.opt.ValidationClocks), s.opt.Workers)
		if err != nil {
			return nil, err
		}
		rep.Validation = res
		rep.Validated = true
	}
	return rep, nil
}

// PhaseTimeline re-exposes the detection timeline for callers that
// only hold a Report.
func (r *Report) PhaseTimeline() string { return r.Detection.Timeline() }

// Render writes a human-readable report.
func (r *Report) Render(out io.Writer) {
	fmt.Fprintf(out, "workload %s: %d frames, %d draws (%.1f draws/frame)\n",
		r.Summary.Name, r.Summary.Frames, r.Summary.Draws, r.Summary.DrawsPerFrame)
	if r.Clustering != nil {
		fmt.Fprintf(out, "clustering: mean prediction error %.2f%%, efficiency %.1f%%, outliers %.1f%% (max frame error %.2f%%)\n",
			r.Clustering.MeanError*100, r.Clustering.MeanEfficiency*100,
			r.Clustering.OutlierRate*100, r.Clustering.MaxError*100)
	}
	if r.Diagnostics.Any() {
		fmt.Fprintf(out, "degraded: %v\n", r.Diagnostics)
	}
	fmt.Fprintf(out, "phases: %d across %d intervals  timeline %s\n",
		r.Detection.NumPhases, len(r.Detection.Intervals), r.Detection.Timeline())
	fmt.Fprintf(out, "subset: %d frames, %d draws = %.2f%% of parent\n",
		len(r.Subset.Frames), r.Subset.NumDraws(), r.SizeRatio*100)
	if r.Validated {
		fmt.Fprintf(out, "validation: speedup correlation %.4f, rank correlation %.4f over %d configs\n",
			r.Validation.Correlation, r.Validation.RankCorrelation, len(r.Validation.Points))
	}
}
