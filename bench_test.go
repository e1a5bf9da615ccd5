// Benchmarks regenerating every experiment of the reproduction (one
// per table/figure; see DESIGN.md §4). Each benchmark runs its
// experiment's computation at reduced corpus scale (32 frames per game
// instead of 239) so `go test -bench=.` completes in minutes on one
// core; cmd/experiments produces the full-scale numbers. Key result
// values are attached via b.ReportMetric, so the bench output doubles
// as a quality-regression record.
package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apicmd"
	"repro/internal/charz"
	"repro/internal/cluster"
	"repro/internal/dcmath"
	"repro/internal/explore"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

const benchSeed = 42

var (
	benchOnce  sync.Once
	benchSuite []*trace.Workload
)

// suite returns the reduced three-game corpus shared by all benchmarks.
func suite(b *testing.B) []*trace.Workload {
	b.Helper()
	benchOnce.Do(func() {
		for i, p := range synth.SuiteProfiles() {
			p.Frames = 32
			w, err := tracetest.CachedWorkload(p, benchSeed+uint64(i)*0x9e3779b97f4a7c15)
			if err != nil {
				panic(err)
			}
			benchSuite = append(benchSuite, w)
		}
	})
	return benchSuite
}

func oracle(b *testing.B, w *trace.Workload) *gpu.Simulator {
	b.Helper()
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkE1Corpus measures workload synthesis (the corpus summary
// table's substrate).
func BenchmarkE1Corpus(b *testing.B) {
	p := synth.Bioshock1Profile()
	p.Frames = 8
	var draws int
	for i := 0; i < b.N; i++ {
		w, err := synth.Generate(p, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		draws = w.NumDraws()
	}
	b.ReportMetric(float64(draws), "draws")
}

// benchEval runs the clustering evaluation over the reduced corpus and
// reports the E2/E3/E4 metrics it produces.
func benchEval(b *testing.B, report func(*testing.B, []metrics.WorkloadReport)) {
	ws := suite(b)
	var reps []metrics.WorkloadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps = reps[:0]
		for _, w := range ws {
			fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
			if err != nil {
				b.Fatal(err)
			}
			rep, err := metrics.EvaluateWorkload(oracle(b, w), w, fc, metrics.DefaultOutlierThreshold)
			if err != nil {
				b.Fatal(err)
			}
			reps = append(reps, rep)
		}
	}
	b.StopTimer()
	report(b, reps)
}

// BenchmarkE2PredictionError regenerates the per-frame prediction
// error table (paper: 1.0% average).
func BenchmarkE2PredictionError(b *testing.B) {
	benchEval(b, func(b *testing.B, reps []metrics.WorkloadReport) {
		var errs []float64
		for _, r := range reps {
			errs = append(errs, r.MeanError)
		}
		b.ReportMetric(dcmath.Mean(errs)*100, "err%")
	})
}

// BenchmarkE3Efficiency regenerates the clustering-efficiency table
// (paper: 65.8% average).
func BenchmarkE3Efficiency(b *testing.B) {
	benchEval(b, func(b *testing.B, reps []metrics.WorkloadReport) {
		var effs []float64
		for _, r := range reps {
			effs = append(effs, r.MeanEfficiency)
		}
		b.ReportMetric(dcmath.Mean(effs)*100, "eff%")
	})
}

// BenchmarkE4Outliers regenerates the cluster-outlier figure (paper:
// 3.0% average).
func BenchmarkE4Outliers(b *testing.B) {
	benchEval(b, func(b *testing.B, reps []metrics.WorkloadReport) {
		var rates []float64
		for _, r := range reps {
			rates = append(rates, r.OutlierRate)
		}
		b.ReportMetric(dcmath.Mean(rates)*100, "outlier%")
	})
}

// BenchmarkE5Tradeoff regenerates one row band of the
// error-vs-efficiency curve (three thresholds on one game).
func BenchmarkE5Tradeoff(b *testing.B) {
	w := suite(b)[0]
	sim := oracle(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.5, 1.0, 2.0} {
			m := subset.DefaultMethod()
			m.Threshold = th
			fc, err := subset.NewFrameClusterer(w, m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := metrics.EvaluateWorkload(sim, w, fc, metrics.DefaultOutlierThreshold); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE6Phases regenerates the shader-vector phase timelines.
func BenchmarkE6Phases(b *testing.B) {
	ws := suite(b)
	var phases int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phases = 0
		for _, w := range ws {
			det, err := phase.Detect(w, phase.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			phases += det.NumPhases
		}
	}
	b.ReportMetric(float64(phases), "phases")
}

// BenchmarkE7SubsetSize regenerates the subset-size table (paper:
// < 1% of parent at full corpus scale).
func BenchmarkE7SubsetSize(b *testing.B) {
	ws := suite(b)
	var ratios []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratios = ratios[:0]
		for _, w := range ws {
			s, err := subset.Build(w, subset.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, s.SizeRatio())
		}
	}
	b.ReportMetric(dcmath.Mean(ratios)*100, "ratio%")
}

// BenchmarkE8FreqCorrelation regenerates the core-frequency scaling
// validation (paper: r >= 0.997).
func BenchmarkE8FreqCorrelation(b *testing.B) {
	w := suite(b)[0]
	s, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := sweep.CoreClockSweep(gpu.BaseConfig(), []float64{0.4, 0.8, 1.2, 1.6, 2.0})
	var r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunParallel(context.Background(), w, s, cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		r = res.Correlation
	}
	b.ReportMetric(r, "pearson")
}

// BenchmarkE9Baselines regenerates the equal-budget baseline
// comparison for one game.
func BenchmarkE9Baselines(b *testing.B) {
	w := suite(b)[0]
	sim := oracle(b, w)
	fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
	if err != nil {
		b.Fatal(err)
	}
	rng := dcmath.NewRNG(benchSeed)
	var clust, rand float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cErr, rErr []float64
		for fi := 0; fi < len(w.Frames); fi += 8 {
			f := &w.Frames[fi]
			cf, err := fc.ClusterFrame(f, fi)
			if err != nil {
				b.Fatal(err)
			}
			cs := cf.Sample()
			cErr = append(cErr, metrics.SampleError(sim, f, &cs))
			rs, err := subset.RandomSample(f, cf.Result.K, rng)
			if err != nil {
				b.Fatal(err)
			}
			rErr = append(rErr, metrics.SampleError(sim, f, &rs))
		}
		clust, rand = dcmath.Mean(cErr), dcmath.Mean(rErr)
	}
	b.ReportMetric(clust*100, "clust-err%")
	b.ReportMetric(rand*100, "rand-err%")
}

// BenchmarkE10Ablations regenerates the normalization ablation arm on
// a frame sample.
func BenchmarkE10Ablations(b *testing.B) {
	w := suite(b)[0]
	sim := oracle(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, norm := range []string{"zscore", "minmax", "none"} {
			m := subset.DefaultMethod()
			m.Normalizer = norm
			fc, err := subset.NewFrameClusterer(w, m)
			if err != nil {
				b.Fatal(err)
			}
			for fi := 0; fi < len(w.Frames); fi += 8 {
				cf, err := fc.ClusterFrame(&w.Frames[fi], fi)
				if err != nil {
					b.Fatal(err)
				}
				metrics.EvaluateFrame(sim, &w.Frames[fi], &cf, metrics.DefaultOutlierThreshold)
			}
		}
	}
}

// BenchmarkE11MemScaling regenerates the memory-clock validation
// (extension of E8).
func BenchmarkE11MemScaling(b *testing.B) {
	w := suite(b)[0]
	s, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := sweep.MemClockSweep(gpu.BaseConfig(), []float64{0.5, 1.0, 1.5, 2.0})
	var r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunParallel(context.Background(), w, s, cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		r = res.Correlation
	}
	b.ReportMetric(r, "pearson")
}

// BenchmarkE13ContextGap regenerates the shared-cache
// context-dependence study on one frame.
func BenchmarkE13ContextGap(b *testing.B) {
	w := suite(b)[0]
	sim := oracle(b, w)
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := sim.FrameDetailed(&w.Frames[0], 20000)
		if err != nil {
			b.Fatal(err)
		}
		gap = (det.ContextFreeNs - det.TotalNs) / det.ContextFreeNs
	}
	b.ReportMetric(gap*100, "gap%")
}

// BenchmarkE14SeedRobustness regenerates one seed arm of the
// stability study.
func BenchmarkE14SeedRobustness(b *testing.B) {
	p := synth.Bioshock1Profile()
	p.Frames = 16
	var meanErr float64
	for i := 0; i < b.N; i++ {
		w, err := synth.Generate(p, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
		if err != nil {
			b.Fatal(err)
		}
		fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := metrics.EvaluateWorkload(sim, w, fc, metrics.DefaultOutlierThreshold)
		if err != nil {
			b.Fatal(err)
		}
		meanErr = rep.MeanError
	}
	b.ReportMetric(meanErr*100, "err%")
}

// BenchmarkE15PCAReduction regenerates the PCA ablation arm on a
// frame sample.
func BenchmarkE15PCAReduction(b *testing.B) {
	w := suite(b)[0]
	sim := oracle(b, w)
	m := subset.DefaultMethod()
	m.PCAComponents = 8
	fc, err := subset.NewFrameClusterer(w, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fi := 0; fi < len(w.Frames); fi += 8 {
			cf, err := fc.ClusterFrame(&w.Frames[fi], fi)
			if err != nil {
				b.Fatal(err)
			}
			metrics.EvaluateFrame(sim, &w.Frames[fi], &cf, metrics.DefaultOutlierThreshold)
		}
	}
}

// BenchmarkE16EnergyPathfinding regenerates the min-EDP decision
// study on a DVFS sweep.
func BenchmarkE16EnergyPathfinding(b *testing.B) {
	w := suite(b)[0]
	s, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	pm := gpu.DefaultPowerModel()
	cfgs := sweep.CoreClockSweep(gpu.BaseConfig(), []float64{0.5, 1.0, 1.5, 2.0})
	agree := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunEnergyParallel(context.Background(), w, s, pm, cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Agreement {
			agree = 1
		}
	}
	b.ReportMetric(agree, "agreement")
}

// BenchmarkE17Characterize regenerates the bottleneck/traffic
// characterization for one game.
func BenchmarkE17Characterize(b *testing.B) {
	w := suite(b)[0]
	sim := oracle(b, w)
	var memShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := charz.Characterize(sim, w)
		memShare = br.MemoryBoundNs / br.Totals.TotalNs
	}
	b.ReportMetric(memShare*100, "membound%")
}

// BenchmarkE18CommandStream regenerates the state-change
// characterization for one game.
func BenchmarkE18CommandStream(b *testing.B) {
	w := suite(b)[0]
	var bindsPerDraw float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := apicmd.Record(w).Stats()
		bindsPerDraw = st.BindsPerDraw
	}
	b.ReportMetric(bindsPerDraw, "binds/draw")
}

// BenchmarkE19Frontier regenerates the Pareto-frontier agreement study
// on a small grid.
func BenchmarkE19Frontier(b *testing.B) {
	w := suite(b)[0]
	s, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	pm := gpu.DefaultPowerModel()
	grid := sweep.Grid(gpu.BaseConfig(), []float64{0.5, 1.0, 1.8}, []float64{0.5, 1.5})
	var agreement float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunEnergyParallel(context.Background(), w, s, pm, grid, 0)
		if err != nil {
			b.Fatal(err)
		}
		parentC := make([]explore.Candidate, len(res.Points))
		subsetC := make([]explore.Candidate, len(res.Points))
		for j, p := range res.Points {
			parentC[j] = explore.Candidate{Index: j, DelayNs: p.ParentNs, EnergyJ: p.ParentEnergy.TotalJ}
			subsetC[j] = explore.Candidate{Index: j, DelayNs: p.SubsetNs, EnergyJ: p.SubsetEnergy.TotalJ}
		}
		agreement = explore.FrontierAgreement(
			explore.ParetoFrontier(parentC), explore.ParetoFrontier(subsetC))
	}
	b.ReportMetric(agreement, "agreement")
}

// BenchmarkE20MicroarchSweep regenerates the EU-count fidelity sweep.
func BenchmarkE20MicroarchSweep(b *testing.B) {
	w := suite(b)[0]
	s, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]gpu.Config, 0, 3)
	for _, eus := range []int{4, 8, 16} {
		cfg := gpu.BaseConfig()
		cfg.NumEUs = eus
		cfg.Name = "eu"
		cfgs = append(cfgs, cfg)
	}
	var r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunParallel(context.Background(), w, s, cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		r = res.Correlation
	}
	b.ReportMetric(r, "pearson")
}

// BenchmarkE21GroundTruth regenerates the ARI/purity validity study
// on a frame sample of one game.
func BenchmarkE21GroundTruth(b *testing.B) {
	w := suite(b)[0]
	fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
	if err != nil {
		b.Fatal(err)
	}
	var ari float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		n := 0
		for fi := 0; fi < len(w.Frames); fi += 8 {
			f := &w.Frames[fi]
			cf, err := fc.ClusterFrame(f, fi)
			if err != nil {
				b.Fatal(err)
			}
			labels := make([]int, len(f.Draws))
			for di := range f.Draws {
				labels[di] = int(f.Draws[di].MaterialID)
			}
			v, err := cluster.AdjustedRandIndex(cf.Result.Assign, labels)
			if err != nil {
				b.Fatal(err)
			}
			sum += v
			n++
		}
		ari = sum / float64(n)
	}
	b.ReportMetric(ari, "ARI")
}

// BenchmarkE22FeatureSpectrum regenerates the feature-space
// dimensionality analysis on one frame.
func BenchmarkE22FeatureSpectrum(b *testing.B) {
	w := suite(b)[0]
	ex, err := features.NewExtractor(w)
	if err != nil {
		b.Fatal(err)
	}
	var d95 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := ex.Frame(&w.Frames[0])
		var z linalg.ZScore
		z.Fit(x)
		for r := 0; r < x.Rows; r++ {
			z.Apply(x.Row(r))
		}
		pca, err := linalg.FitPCA(x, features.NumFeatures)
		if err != nil {
			b.Fatal(err)
		}
		cum := 0.0
		for j, e := range pca.Explained {
			cum += e
			if cum >= 0.95 {
				d95 = float64(j + 1)
				break
			}
		}
	}
	b.ReportMetric(d95, "dims@95%")
}

// BenchmarkE12Pathfinding regenerates the decision-fidelity study on a
// config grid.
func BenchmarkE12Pathfinding(b *testing.B) {
	w := suite(b)[0]
	s, err := subset.Build(w, subset.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	grid := sweep.Grid(gpu.BaseConfig(), []float64{0.6, 1.0, 1.6}, []float64{0.5, 1.0})
	agree := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunParallel(context.Background(), w, s, grid, 0)
		if err != nil {
			b.Fatal(err)
		}
		if sweep.Decide(res).Agreement {
			agree = 1
		}
	}
	b.ReportMetric(agree, "agreement")
}
