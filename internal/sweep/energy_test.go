package sweep

import (
	"context"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/subset"
)

func TestRunEnergySweep(t *testing.T) {
	w, s := sweepGame(t)
	pm := gpu.DefaultPowerModel()
	cfgs := CoreClockSweep(gpu.BaseConfig(), []float64{0.5, 1.0, 1.5, 2.0})
	res, err := RunEnergyParallel(context.Background(), w, s, pm, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, p := range res.Points {
		if p.ParentEnergy.TotalJ <= 0 || p.SubsetEnergy.TotalJ <= 0 {
			t.Fatalf("point %d: non-positive energy", i)
		}
		// Subset reconstruction should land near the parent's energy.
		rel := math.Abs(p.SubsetEnergy.TotalJ-p.ParentEnergy.TotalJ) / p.ParentEnergy.TotalJ
		if rel > 0.10 {
			t.Errorf("point %d: subset energy off by %.1f%%", i, rel*100)
		}
	}
	if res.EDPCorrelation < 0.99 {
		t.Errorf("EDP correlation = %v", res.EDPCorrelation)
	}
	if !res.Agreement {
		t.Errorf("EDP decision disagreement: parent %d, subset %d", res.BestByParentEDP, res.BestBySubsetEDP)
	}
}

func TestRunEnergyEDPNotMonotone(t *testing.T) {
	// EDP should have an interior structure: the fastest clock pays
	// superlinear energy, the slowest pays delay. Verify the min-EDP
	// pick is not always simply the fastest config by checking that
	// energy rises with clock even as delay falls.
	w, s := sweepGame(t)
	pm := gpu.DefaultPowerModel()
	cfgs := CoreClockSweep(gpu.BaseConfig(), []float64{0.5, 2.0})
	res, err := RunEnergyParallel(context.Background(), w, s, pm, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := res.Points[0], res.Points[1]
	if fast.ParentNs >= slow.ParentNs {
		t.Error("faster clock not faster")
	}
	if fast.ParentEnergy.CoreJ <= slow.ParentEnergy.CoreJ {
		t.Error("faster clock should burn more core energy (DVFS)")
	}
}

func TestRunEnergyValidation(t *testing.T) {
	w, s := sweepGame(t)
	bad := gpu.DefaultPowerModel()
	bad.CoreDynW = 0
	if _, err := RunEnergyParallel(context.Background(), w, s, bad, CoreClockSweep(gpu.BaseConfig(), []float64{0.5, 1}), 0); err == nil {
		t.Error("invalid power model accepted")
	}
	if _, err := RunEnergyParallel(context.Background(), w, s, gpu.DefaultPowerModel(), CoreClockSweep(gpu.BaseConfig(), []float64{1}), 0); err == nil {
		t.Error("single config accepted")
	}
}

func TestEstimateParentTotalsTracksRun(t *testing.T) {
	w, s := sweepGame(t)
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	_, parent := sim.RunTotals()
	tn, cn, mn, tb := s.EstimateParentTotals(sim)
	check := func(name string, got, want float64) {
		if want <= 0 {
			t.Fatalf("%s: parent total not positive", name)
		}
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("%s: subset estimate off by %.1f%% (%v vs %v)", name, rel*100, got, want)
		}
	}
	check("TotalNs", tn, parent.TotalNs)
	check("ComputeNs", cn, parent.ComputeNs)
	check("MemoryNs", mn, parent.MemoryNs)
	check("TrafficBytes", tb, parent.TrafficBytes)
}

var _ subset.TotalsOracle = (*gpu.Simulator)(nil)
