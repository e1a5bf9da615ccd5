package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/shard"
	"repro/internal/subset"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The grid every grid and fleet iteration prices: 8 core clocks x 4
// memory clocks over the base configuration.
var (
	gridCore = []float64{0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0}
	gridMem  = []float64{0.6, 0.8, 1.0, 1.2}
)

func gridConfigs() []gpu.Config { return sweep.Grid(gpu.BaseConfig(), gridCore, gridMem) }

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// input is what set-up produces: the generated workload (kept only for
// the traced run's probes), the encoded bytes the iterations start
// from, and the reference outputs every iteration is checked against.
type input struct {
	w *trace.Workload

	// encoded is the trace the iterations decode: the gob encoding for
	// subset and grid, the stream encoding (what subsetd ingests) for
	// fleet.
	encoded []byte

	// subset: the rendered report and the digest of the subset itself.
	report       []byte
	subsetDigest string

	// grid and fleet: the encoded run manifest and its rendered table,
	// priced sequentially with no cache.
	manifest []byte
	table    []byte

	// grid-warm: a cache directory a cold pass has filled.
	warmDir string
}

// prepare generates the bioshock1 trace from seed, encodes it and
// computes the workload's references. dir is a scratch directory the
// input may keep files in.
func prepare(ctx context.Context, workload string, seed uint64, dir string) (*input, error) {
	w, err := synth.Generate(synth.Bioshock1Profile(), seed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in := &input{w: w}
	var buf bytes.Buffer
	if workload == "fleet" {
		err = trace.EncodeStream(&buf, w)
	} else {
		err = w.Encode(&buf)
	}
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	in.encoded = buf.Bytes()

	if workload == "subset" {
		sub, err := core.New(core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		rep, err := sub.RunContext(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("reference subset: %w", err)
		}
		in.report = renderReport(rep)
		in.subsetDigest = subsetDigest(rep.Subset)
		return in, nil
	}

	rm, err := shard.RunSequential(ctx, nil, w, gridConfigs())
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	if in.manifest, in.table, err = renderManifest(rm); err != nil {
		return nil, err
	}
	if workload == "grid-warm" {
		in.warmDir = filepath.Join(dir, "warm-cache")
		if err := os.RemoveAll(in.warmDir); err != nil {
			return nil, err
		}
		o := gridPass(ctx, in, in.warmDir)
		if o.err != "" {
			return nil, fmt.Errorf("warming the cache: %s", o.err)
		}
	}
	return in, nil
}

// setup runs prepare setupReps times, sampling the kernel after each,
// and keeps the last input; it returns each rep's raw seconds.
func setup(ctx context.Context, workload string, seed uint64, dir string, cal *calibration) (in *input, secs []float64, err error) {
	for i := 0; i < setupReps; i++ {
		in = nil // let the previous rep's input be collected first
		t0 := time.Now()
		if in, err = prepare(ctx, workload, seed, dir); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		cal.sample()
	}
	return in, secs, nil
}

func renderReport(rep *core.Report) []byte {
	var out bytes.Buffer
	rep.Render(&out)
	return out.Bytes()
}

func renderManifest(rm *shard.RunManifest) (enc, table []byte, err error) {
	if enc, err = rm.Encode(); err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	rm.Render(&out)
	return enc, out.Bytes(), nil
}

// subsetDigest is the SHA-256 of the subset's kept frames, weights and
// representative draws: what a pathfinding study simulates.
func subsetDigest(s *subset.Subset) string {
	h := sha256.New()
	for _, f := range s.Frames {
		fmt.Fprintf(h, "frame %d phase %d scale %x\n", f.ParentFrame, f.Phase, math.Float64bits(f.PhaseScale))
		for i := range f.Draws {
			fmt.Fprintf(h, "%x %+v\n", math.Float64bits(f.Weights[i]), f.Draws[i])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// frameDigest is the per-frame curve digest a shard manifest entry
// carries: SHA-256 over the IEEE-754 bits of each frame's nanoseconds,
// big-endian, in frame order. The traced grid replay needs it to build
// the entry that shard.RunSequential builds.
func frameDigest(frameNs []float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, v := range frameNs {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// digest is a short hex SHA-256 for printing reference outputs.
func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
