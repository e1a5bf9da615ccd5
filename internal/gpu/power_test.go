package gpu

import (
	"math"
	"testing"
)

func TestDefaultPowerModelValid(t *testing.T) {
	if err := DefaultPowerModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerModelValidateRejects(t *testing.T) {
	mutations := map[string]func(*PowerModel){
		"zero core": func(p *PowerModel) { p.CoreDynW = 0 },
		"bad vmin":  func(p *PowerModel) { p.VMinRatio = 0 },
		"vmin > 1":  func(p *PowerModel) { p.VMinRatio = 1.5 },
		"neg dram":  func(p *PowerModel) { p.MemPJPerByte = -1 },
		"neg idle":  func(p *PowerModel) { p.IdleW = -1 },
	}
	for name, mutate := range mutations {
		pm := DefaultPowerModel()
		mutate(&pm)
		if pm.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestVoltageRatio(t *testing.T) {
	pm := DefaultPowerModel()
	if got := pm.VoltageRatio(1.0); got != 1.0 {
		t.Errorf("V(1GHz)/V0 = %v", got)
	}
	if got := pm.VoltageRatio(2.0); math.Abs(got-(1+pm.VSlope)) > 1e-12 {
		t.Errorf("V(2GHz)/V0 = %v", got)
	}
	// Clamped below.
	if got := pm.VoltageRatio(0.1); got != pm.VMinRatio {
		t.Errorf("low-f voltage = %v, want clamp %v", got, pm.VMinRatio)
	}
}

func TestEnergyArithmetic(t *testing.T) {
	pm := PowerModel{CoreDynW: 10, VSlope: 0, VMinRatio: 0.5, MemPJPerByte: 100, IdleW: 2}
	cfg := BaseConfig()                                            // core 1 GHz, V ratio 1
	tot := Totals{TotalNs: 2e9, ComputeNs: 1e9, TrafficBytes: 1e9} // 2 s wall, 1 s busy, 1 GB
	e := pm.Energy(cfg, tot)
	if math.Abs(e.CoreJ-10) > 1e-9 { // 10 W * 1 s
		t.Errorf("CoreJ = %v", e.CoreJ)
	}
	if math.Abs(e.MemJ-0.1) > 1e-9 { // 100 pJ/B * 1e9 B
		t.Errorf("MemJ = %v", e.MemJ)
	}
	if math.Abs(e.IdleJ-4) > 1e-9 { // 2 W * 2 s
		t.Errorf("IdleJ = %v", e.IdleJ)
	}
	if math.Abs(e.TotalJ-14.1) > 1e-9 {
		t.Errorf("TotalJ = %v", e.TotalJ)
	}
	if math.Abs(e.AvgW-7.05) > 1e-9 {
		t.Errorf("AvgW = %v", e.AvgW)
	}
	if math.Abs(e.EDPJs-28.2) > 1e-9 {
		t.Errorf("EDP = %v", e.EDPJs)
	}
}

func TestHigherClockCostsMoreEnergyPerBusySecond(t *testing.T) {
	pm := DefaultPowerModel()
	tot := Totals{TotalNs: 1e9, ComputeNs: 1e9}
	slow := pm.Energy(BaseConfig().WithCoreClock(1.0), tot)
	fast := pm.Energy(BaseConfig().WithCoreClock(2.0), tot)
	if fast.CoreJ <= slow.CoreJ {
		t.Errorf("2 GHz core energy %v <= 1 GHz %v for same busy time", fast.CoreJ, slow.CoreJ)
	}
	// Superlinear: f * V(f)^2 > 2x at 2 GHz.
	if fast.CoreJ < 2*slow.CoreJ {
		t.Errorf("DVFS energy not superlinear: %v vs %v", fast.CoreJ, slow.CoreJ)
	}
}

func TestRunTotalsConsistentWithRun(t *testing.T) {
	s, w := newSim(t, BaseConfig())
	res := runAll(t, s)
	res2, tot := s.RunTotals()
	if math.Abs(res.TotalNs-res2.TotalNs) > 1e-6 {
		t.Errorf("RunTotals TotalNs %v != RunParallel %v", res2.TotalNs, res.TotalNs)
	}
	if math.Abs(tot.TotalNs-res.TotalNs) > 1e-6 {
		t.Errorf("Totals.TotalNs %v != run total %v", tot.TotalNs, res.TotalNs)
	}
	if tot.ComputeNs <= 0 || tot.MemoryNs <= 0 || tot.TrafficBytes <= 0 {
		t.Errorf("totals not populated: %+v", tot)
	}
	// Busy times cannot exceed wall time in this serialized-draw model.
	if tot.ComputeNs > tot.TotalNs || tot.MemoryNs > tot.TotalNs {
		t.Errorf("busy time exceeds wall time: %+v", tot)
	}
	// Cross-check against DrawTotals on one draw.
	tn, cn, mn, tb := s.DrawTotals(&w.Frames[0].Draws[0])
	dc := s.DrawCost(&w.Frames[0].Draws[0])
	if tn != dc.TotalNs || cn != dc.ComputeNs || mn != dc.MemoryNs || tb != dc.TrafficBytes() {
		t.Error("DrawTotals disagrees with DrawCost")
	}
}

func TestTotalsAddWeighted(t *testing.T) {
	var tot Totals
	dc := DrawCost{TotalNs: 10, ComputeNs: 6, MemoryNs: 4, TexBytes: 100}
	tot.Add(dc, 3)
	if tot.TotalNs != 30 || tot.ComputeNs != 18 || tot.MemoryNs != 12 || tot.TrafficBytes != 300 {
		t.Errorf("weighted add wrong: %+v", tot)
	}
}
