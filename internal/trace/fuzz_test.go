package trace_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/subset"
	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

// FuzzDecode ensures the binary decoder never panics and never
// returns an invalid workload, no matter how the input is mangled.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := tracetest.Tiny().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a stream container at all"))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte{}, valid...)
	for i := 10; i < len(mutated); i += 97 {
		mutated[i] ^= 0xff
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if err := w.Validate(); err != nil {
			t.Errorf("Decode returned invalid workload: %v", err)
		}
	})
}

// FuzzStreamDecode does the same for the frame-stream format.
func FuzzStreamDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, tracetest.Tiny()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:40])
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := trace.NewStreamReader(bytes.NewReader(data), trace.ReaderOptions{})
		if err != nil {
			return
		}
		for i := 0; i < 100; i++ {
			if _, err := dec.NextFrame(); err != nil {
				return // EOF or rejection both fine
			}
		}
	})
}

// FuzzStreamV2Resync feeds mutated stream container bytes to the resyncing
// lenient reader: it must never panic, never loop forever, and every
// frame it delivers must still pass full validation against the shell.
func FuzzStreamV2Resync(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, tracetest.Tiny()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, 0, byte(0))
	f.Add(valid, 20, byte(0xff))             // damage inside the header record
	f.Add(valid, len(valid)/2, byte(0x01))   // damage mid-stream
	f.Add(valid[:len(valid)-30], 0, byte(0)) // truncated tail
	f.Add([]byte("3DWS\x03junkjunkjunk"), 3, byte(7))
	doubled := append(append([]byte{}, valid...), valid...) // concatenated captures
	f.Add(doubled, 0, byte(0))

	f.Fuzz(func(t *testing.T, data []byte, pos int, mask byte) {
		mutated := append([]byte{}, data...)
		if len(mutated) > 0 {
			mutated[abs(pos)%len(mutated)] ^= mask
		}
		r, err := trace.NewStreamReader(bytes.NewReader(mutated), trace.ReaderOptions{Lenient: true})
		if err != nil {
			return // header unrecoverable: rejecting is fine
		}
		shell := r.Shell()
		for {
			fr, err := r.NextFrame()
			if err != nil {
				// Lenient reading only ever ends in io.EOF.
				if err != io.EOF {
					t.Fatalf("lenient reader returned %v", err)
				}
				return
			}
			check := *shell
			check.Frames = []trace.Frame{fr}
			if err := check.Validate(); err != nil {
				t.Fatalf("reader delivered invalid frame: %v", err)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// FuzzDecodeThenPrice is the trust boundary's safety net. Arbitrary
// bytes go through ReadWorkload in both modes; a failure must carry a
// traceerr class, and a workload that comes out must survive every
// consumer that takes it on trust — extract, cluster, price — without
// a panic or an error.
func FuzzDecodeThenPrice(f *testing.F) {
	for _, w := range []*trace.Workload{tracetest.Tiny(), tracetest.TinySparseIDs()} {
		var jsonBuf, streamBuf bytes.Buffer
		if err := w.EncodeJSON(&jsonBuf); err != nil {
			f.Fatal(err)
		}
		if err := w.Encode(&streamBuf); err != nil {
			f.Fatal(err)
		}
		// Legacy gob bytes must fail classified, mangled or not.
		for _, valid := range [][]byte{legacyGob(f, w), jsonBuf.Bytes(), streamBuf.Bytes()} {
			f.Add(valid)
			f.Add(valid[:len(valid)/2])
			flipped := append([]byte(nil), valid...)
			for i := len(flipped) / 3; i < len(flipped); i += len(flipped) / 5 {
				flipped[i] ^= 0x10
			}
			f.Add(flipped)
		}
	}

	classes := []error{traceerr.ErrTruncated, traceerr.ErrCorruptRecord, traceerr.ErrVersionMismatch,
		traceerr.ErrInvalidFrame, traceerr.ErrTooLarge}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lenient := range []bool{false, true} {
			w, _, _, err := trace.ReadWorkload(bytes.NewReader(data), trace.ReaderOptions{Lenient: lenient, MaxBytes: 1 << 20})
			if err != nil {
				typed := false
				for _, c := range classes {
					typed = typed || errors.Is(err, c)
				}
				if !typed {
					t.Fatalf("lenient=%v: untyped error: %v", lenient, err)
				}
				continue
			}
			if _, err := features.NewExtractor(w); err != nil {
				t.Fatalf("lenient=%v: extractor rejected a decoded workload: %v", lenient, err)
			}
			fc, err := subset.NewFrameClusterer(w, subset.DefaultMethod())
			if err != nil {
				t.Fatalf("lenient=%v: clusterer rejected a decoded workload: %v", lenient, err)
			}
			if _, err := fc.ClusterFrames(context.Background(), w.Frames, nil, 1); err != nil {
				t.Fatalf("lenient=%v: clustering a decoded workload: %v", lenient, err)
			}
			sim, err := gpu.NewSimulator(gpu.BaseConfig(), w)
			if err != nil {
				t.Fatalf("lenient=%v: simulator rejected a decoded workload: %v", lenient, err)
			}
			for i := range w.Frames {
				sim.FrameNs(&w.Frames[i])
			}
		}
	})
}
