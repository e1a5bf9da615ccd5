package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/traceerr"
)

// decodeAndRun is the pipeline as the CLIs drive it: w's encoded bytes
// cross the trust boundary (trace.ReadWorkload, strict or lenient),
// and the decoded workload runs with the decoder's accounting in the
// report.
func decodeAndRun(t *testing.T, w *trace.Workload, lenient bool, opt Options) (*Report, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dw, _, diag, err := trace.ReadWorkload(&buf, trace.ReaderOptions{Lenient: lenient})
	if err != nil {
		return nil, err
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(dw)
	if err != nil {
		return nil, err
	}
	rep.Diagnostics = diag
	return rep, nil
}

func TestLenientRunSanitizesDamage(t *testing.T) {
	w := coreGame(t)
	cleanDraws := w.NumDraws()
	// One rotten draw in frame 2, one frame (5) damaged beyond use.
	w.Frames[2].Draws[0].Overdraw = 0.2
	for di := range w.Frames[5].Draws {
		w.Frames[5].Draws[di].VertexCount = -1
	}
	droppedWhole := len(w.Frames[5].Draws)

	if _, err := decodeAndRun(t, w, false, DefaultOptions()); err == nil {
		t.Fatal("strict mode accepted damaged workload")
	}

	opt := DefaultOptions()
	opt.SkipClusteringEval = true
	rep, err := decodeAndRun(t, w, true, opt)
	if err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	d := rep.Diagnostics
	if d.FramesSkipped != 1 {
		t.Errorf("FramesSkipped = %d, want 1", d.FramesSkipped)
	}
	if d.DrawsDropped != droppedWhole+1 {
		t.Errorf("DrawsDropped = %d, want %d", d.DrawsDropped, droppedWhole+1)
	}
	if rep.Summary.Draws != cleanDraws-droppedWhole-1 {
		t.Errorf("summary draws = %d, want %d", rep.Summary.Draws, cleanDraws-droppedWhole-1)
	}
	if rep.Subset == nil || len(rep.Subset.Frames) == 0 {
		t.Fatal("no subset built from sanitized workload")
	}
	var out bytes.Buffer
	rep.Render(&out)
	if want := fmt.Sprintf("degraded: %v\n", d); !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
}

func TestLenientRunRejectsUnusableWorkload(t *testing.T) {
	w := coreGame(t)
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			w.Frames[fi].Draws[di].VertexCount = -1
		}
	}
	if _, err := decodeAndRun(t, w, true, DefaultOptions()); !errors.Is(err, traceerr.ErrInvalidFrame) {
		t.Fatalf("err = %v, want ErrInvalidFrame", err)
	}
}

func TestRunContextHonorsCancellation(t *testing.T) {
	w := coreGame(t)
	s, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel2()
	if _, err := s.RunContext(ctx2, w); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
