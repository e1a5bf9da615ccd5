package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/traceerr"
)

// writeTrace generates a small synthetic workload and writes it as the
// .trace file gpusim consumes.
func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	p := synth.SuiteProfiles()[0]
	p.Frames = 12
	p.MaterialsPerScene = 30
	p.SharedMaterials = 8
	p.Textures = 60
	p.VSPool = 6
	p.PSPool = 12
	w, err := synth.Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, w.Name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseCfg(tracePath string, out *bytes.Buffer) config {
	return config{
		tracePath: tracePath,
		core:      1.0,
		mem:       1.0,
		workers:   runtime.GOMAXPROCS(0),
		logLevel:  "off",
		out:       out,
	}
}

// TestShardMergeMatchesSequentialEndToEnd is the CLI-level byte-
// identity check: a sequential grid sweep versus four -shard runs
// (executed concurrently against one cache directory) folded by
// -merge. Both the -sweep-out JSON and the rendered stdout must be
// byte-identical.
func TestShardMergeMatchesSequentialEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	const grid = "0.5,1.0,1.5,2.0"

	var seqOut bytes.Buffer
	seqCfg := baseCfg(tracePath, &seqOut)
	seqCfg.gridCore = grid
	seqCfg.gridMem = "0.8,1.2"
	seqCfg.sweepOut = filepath.Join(dir, "seq.json")
	if err := execute(context.Background(), seqCfg); err != nil {
		t.Fatal(err)
	}

	cacheDir := filepath.Join(dir, "cache")
	shardDir := filepath.Join(dir, "manifests")
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out bytes.Buffer
			cfg := baseCfg(tracePath, &out)
			cfg.gridCore = grid
			cfg.gridMem = "0.8,1.2"
			cfg.shard = fmt.Sprintf("%d/4", i+1)
			cfg.cacheDir = cacheDir
			cfg.shardDir = shardDir
			errs[i] = execute(context.Background(), cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/4: %v", i+1, err)
		}
	}

	var mergeOut bytes.Buffer
	mergeCfg := baseCfg("", &mergeOut)
	mergeCfg.merge = true
	mergeCfg.shardDir = shardDir
	mergeCfg.sweepOut = filepath.Join(dir, "merged.json")
	if err := execute(context.Background(), mergeCfg); err != nil {
		t.Fatal(err)
	}

	seqJSON, err := os.ReadFile(seqCfg.sweepOut)
	if err != nil {
		t.Fatal(err)
	}
	mergedJSON, err := os.ReadFile(mergeCfg.sweepOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, mergedJSON) {
		t.Fatalf("run manifests differ\nseq:    %s\nmerged: %s", seqJSON, mergedJSON)
	}
	if seqOut.String() != mergeOut.String() {
		t.Fatalf("stdout differs\nseq:\n%s\nmerged:\n%s", seqOut.String(), mergeOut.String())
	}
}

// TestSweepGridFlagValidation covers the operator-error paths.
func TestSweepGridFlagValidation(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTrace(t, dir)
	var out bytes.Buffer

	bad := baseCfg(tracePath, &out)
	bad.gridCore = "1.0,banana"
	if err := execute(context.Background(), bad); err == nil {
		t.Fatal("unparseable -grid-core accepted")
	}

	noDir := baseCfg(tracePath, &out)
	noDir.gridCore = "1.0"
	noDir.shard = "1/2"
	noDir.cacheDir = filepath.Join(dir, "c")
	if err := execute(context.Background(), noDir); err == nil {
		t.Fatal("-shard without -shard-dir accepted")
	}

	noCache := baseCfg(tracePath, &out)
	noCache.gridCore = "1.0"
	noCache.shard = "1/2"
	noCache.shardDir = filepath.Join(dir, "m")
	if err := execute(context.Background(), noCache); err == nil {
		t.Fatal("-shard without -cache-dir accepted")
	}

	noShardDir := baseCfg("", &out)
	noShardDir.merge = true
	if err := execute(context.Background(), noShardDir); err == nil {
		t.Fatal("-merge without -shard-dir accepted")
	}

	emptyMerge := baseCfg("", &out)
	emptyMerge.merge = true
	emptyMerge.shardDir = t.TempDir()
	if err := execute(context.Background(), emptyMerge); err == nil {
		t.Fatal("-merge over an empty directory accepted")
	}
}

// TestTraceLenientRepairsDamage: -lenient repairs a damaged gob trace
// while decoding it and prints the degraded line; without -lenient the
// run fails on the damaged draw.
func TestTraceLenientRepairsDamage(t *testing.T) {
	dir := t.TempDir()
	clean, err := os.ReadFile(writeTrace(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Decode(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	w.Frames[2].Draws[0].Overdraw = 0.2
	path := filepath.Join(dir, "damaged.trace")
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	cfg := baseCfg(path, &out)
	cfg.lenient = true
	if err := execute(context.Background(), cfg); err != nil {
		t.Fatalf("lenient run: %v", err)
	}
	if want := fmt.Sprintf("degraded: %v\n", traceerr.Diagnostics{DrawsDropped: 1}); !strings.HasPrefix(out.String(), want) {
		t.Errorf("output does not open with %q:\n%s", want, out.String())
	}

	cfg.lenient = false
	err = execute(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "frame 2 draw 0: overdraw 0.2 < 1") {
		t.Errorf("strict run: err = %v, want the overdraw rejection", err)
	}
}
