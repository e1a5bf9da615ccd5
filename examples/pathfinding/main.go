// Pathfinding: the intended production use of workload subsetting.
//
// An architect wants the best GPU configuration for a game under a
// fixed "cost" budget, sweeping core and memory clocks. Simulating the
// full trace on every candidate is the expensive way; this example
// extracts a subset once, sweeps the *subset* over the design grid,
// picks a winner — and then verifies against full-trace simulation
// that the subset picked the same configuration.
//
//	go run ./examples/pathfinding
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/synth"
)

func main() {
	profile := synth.Bioshock2Profile()
	profile.Frames = 64
	workload, err := synth.Generate(profile, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Extract the subset once (the cheap, reusable artifact).
	sub, err := subset.Build(workload, subset.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subset: %d draws standing in for %d (%.2f%%)\n\n",
		sub.NumDraws(), sub.ParentDraws, sub.SizeRatio()*100)

	// The design space: 12 candidate configurations. In a real study
	// each candidate costs a full simulator run; with the subset it
	// costs ~1% of that.
	grid := sweep.Grid(gpu.BaseConfig(),
		[]float64{0.6, 1.0, 1.6},       // core clocks (GHz)
		[]float64{0.5, 0.75, 1.0, 1.5}) // memory clocks (GHz)

	// Production mode: subset only.
	subsetNs, err := sweep.SubsetOnlyParallel(context.Background(), sub, grid, 0)
	if err != nil {
		log.Fatal(err)
	}
	best := 0
	for i, t := range subsetNs {
		if t < subsetNs[best] {
			best = i
		}
	}
	fmt.Printf("%-24s %14s\n", "config", "subset est (ms)")
	for i, cfg := range grid {
		marker := ""
		if i == best {
			marker = "   <- subset's pick"
		}
		fmt.Printf("%-24s %14.2f%s\n", cfg.Name, subsetNs[i]/1e6, marker)
	}

	// Verification (normally skipped — it defeats the cost savings):
	// does the full trace agree?
	res, err := sweep.RunParallel(context.Background(), workload, sub, grid, 0)
	if err != nil {
		log.Fatal(err)
	}
	d := sweep.Decide(res)
	fmt.Printf("\nfull-trace best: %s; subset best: %s; agreement: %v\n",
		grid[d.BestByParent].Name, grid[d.BestBySubset].Name, d.Agreement)
	fmt.Printf("speedup-curve correlation: %.4f, rank correlation: %.4f\n",
		res.Correlation, res.RankCorrelation)
}
