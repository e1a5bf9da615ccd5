// Abcompare: an A/B architecture comparison done entirely on subsets.
//
// Two candidate designs trade shader throughput against memory
// bandwidth. The study asks: which wins on each game of the corpus,
// and by how much? Every number on the subset side costs ~1% of the
// full simulation it replaces; the full-trace numbers are computed
// only to show the subset got the answer right.
//
//	go run ./examples/abcompare
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/synth"
)

func main() {
	// Design A: wide shader array, modest memory.
	designA := gpu.BaseConfig()
	designA.Name = "A-wide-shader"
	designA.NumEUs = 16
	designA.DRAMBytesPerClk = 20

	// Design B: narrow shader array, fast memory.
	designB := gpu.BaseConfig()
	designB.Name = "B-fast-memory"
	designB.NumEUs = 6
	designB.DRAMBytesPerClk = 40

	fmt.Printf("%-14s %16s %16s %10s %10s\n",
		"workload", "A est/full (ms)", "B est/full (ms)", "sub pick", "full pick")
	for _, profile := range synth.SuiteProfiles() {
		profile.Frames = 64
		w, err := synth.Generate(profile, 123)
		if err != nil {
			log.Fatal(err)
		}
		sub, err := subset.Build(w, subset.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}

		simA, err := gpu.NewSimulator(designA, w)
		if err != nil {
			log.Fatal(err)
		}
		simB, err := gpu.NewSimulator(designB, w)
		if err != nil {
			log.Fatal(err)
		}
		estA, estB := sub.EstimateParentNs(simA), sub.EstimateParentNs(simB)
		// Both full simulations in one pass over the trace.
		runs, err := simA.PriceGrid(context.Background(), []gpu.Config{designA, designB}, 0)
		if err != nil {
			log.Fatal(err)
		}
		fullA, fullB := runs[0].TotalNs, runs[1].TotalNs

		pick := func(a, b float64) string {
			if a <= b {
				return designA.Name
			}
			return designB.Name
		}
		fmt.Printf("%-14s %7.0f/%-8.0f %7.0f/%-8.0f %10s %10s\n",
			w.Name, estA/1e6, fullA/1e6, estB/1e6, fullB/1e6,
			pick(estA, estB)[:1], pick(fullA, fullB)[:1])
	}
	fmt.Println("\nest = reconstructed from the subset; full = complete trace simulation")
}
