// Streaming: subset a capture that never fits in memory.
//
// A frame-stream trace is consumed one frame at a time; the subsetter
// keeps only the current 4-frame characterization interval plus the
// subset itself, so memory stays bounded no matter how long the
// capture runs. The example writes a stream to a temp file, subsets it
// in one pass, and verifies the result against the in-memory batch
// pipeline.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/gpu"
	"repro/internal/stream"
	"repro/internal/subset"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	profile := synth.Bioshock1Profile()
	profile.Frames = 96
	workload, err := synth.Generate(profile, 5)
	if err != nil {
		log.Fatal(err)
	}

	// Write the capture in stream format (in production this is the
	// trace replayer's output, written as frames are captured).
	dir, err := os.MkdirTemp("", "subset3d-stream")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "capture.stream")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.EncodeStream(f, workload); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// One-pass subsetting straight off the file.
	in, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	r, err := trace.NewStreamReader(in, trace.ReaderOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := stream.Run(r, stream.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d frames / %d draws -> %d phases, subset %.2f%% of parent\n",
		res.ParentFrames, res.ParentDraws, res.NumPhases, res.SizeRatio()*100)
	fmt.Printf("timeline %s\n", res.Timeline)

	// Verify against the batch pipeline (possible here because the
	// demo workload does fit in memory).
	batch, err := subset.Build(workload, subset.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	sim, err := gpu.NewSimulator(gpu.BaseConfig(), workload)
	if err != nil {
		log.Fatal(err)
	}
	full, err := sim.RunParallel(context.Background(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parent estimate: streamed %.2f ms, batch %.2f ms (parent actual %.2f ms)\n",
		res.EstimateParentNs(sim)/1e6,
		batch.EstimateParentNs(sim)/1e6,
		full.TotalNs/1e6)
}
