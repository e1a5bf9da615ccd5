package trace_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

// TestEncodeRoundTrip: Encode then Decode reproduces every frame and
// the fingerprint exactly, on the hand-built fixtures and on a full
// synthetic capture.
func TestEncodeRoundTrip(t *testing.T) {
	bio, err := tracetest.CachedWorkload(synth.Bioshock1Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*trace.Workload{tracetest.Tiny(), tracetest.TinySparseIDs(), bio} {
		var buf bytes.Buffer
		if err := w.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := trace.Decode(&buf)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got.Fingerprint() != w.Fingerprint() {
			t.Errorf("%s: fingerprint changed in the round trip", w.Name)
		}
		if !reflect.DeepEqual(got.Frames, w.Frames) {
			t.Errorf("%s: frames changed in the round trip", w.Name)
		}
		assertWorkloadsEqual(t, w, got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := tracetest.Tiny()
	var buf bytes.Buffer
	if err := w.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Name": "tiny"`) {
		t.Error("JSON output missing expected field")
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, w, got)
}

func assertWorkloadsEqual(t *testing.T, want, got *trace.Workload) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("name %q != %q", got.Name, want.Name)
	}
	if got.NumFrames() != want.NumFrames() || got.NumDraws() != want.NumDraws() {
		t.Fatalf("shape mismatch: %d/%d frames, %d/%d draws",
			got.NumFrames(), want.NumFrames(), got.NumDraws(), want.NumDraws())
	}
	for fi := range want.Frames {
		for di := range want.Frames[fi].Draws {
			a, b := want.Frames[fi].Draws[di], got.Frames[fi].Draws[di]
			// Textures is a slice; compare element-wise then blank it
			// for the struct comparison.
			if len(a.Textures) != len(b.Textures) {
				t.Fatalf("frame %d draw %d texture count", fi, di)
			}
			for k := range a.Textures {
				if a.Textures[k] != b.Textures[k] {
					t.Fatalf("frame %d draw %d texture %d", fi, di, k)
				}
			}
			a.Textures, b.Textures = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("frame %d draw %d mismatch:\n%+v\n%+v", fi, di, a, b)
			}
		}
	}
	if got.Shaders.Len() != want.Shaders.Len() {
		t.Fatalf("shader count %d != %d", got.Shaders.Len(), want.Shaders.Len())
	}
	for _, id := range want.Shaders.IDs() {
		wp := want.Shaders.MustLookup(id)
		gp, err := got.Shaders.Lookup(id)
		if err != nil {
			t.Fatalf("shader %d missing after round trip", id)
		}
		if gp.Name != wp.Name || gp.Stage != wp.Stage || len(gp.Body) != len(wp.Body) {
			t.Fatalf("shader %d changed", id)
		}
	}
	if len(got.Textures) != len(want.Textures) || len(got.RenderTargets) != len(want.RenderTargets) {
		t.Fatal("resource tables changed size")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(strings.NewReader("not a stream container")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := trace.Decode(strings.NewReader("{")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

// encodings returns w in every encoding ReadWorkload sniffs.
func encodings(t *testing.T, w *trace.Workload) map[trace.Format][]byte {
	t.Helper()
	var jsonBuf, streamBuf bytes.Buffer
	if err := w.EncodeJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := w.Encode(&streamBuf); err != nil {
		t.Fatal(err)
	}
	return map[trace.Format][]byte{
		trace.FormatJSON:   jsonBuf.Bytes(),
		trace.FormatStream: streamBuf.Bytes(),
	}
}

func TestReadWorkloadSniffsFormats(t *testing.T) {
	w := tracetest.Tiny()
	for want, data := range encodings(t, w) {
		for _, lenient := range []bool{false, true} {
			got, format, diag, err := trace.ReadWorkload(bytes.NewReader(data), trace.ReaderOptions{Lenient: lenient})
			if err != nil {
				t.Fatalf("%s lenient=%v: %v", want, lenient, err)
			}
			if format != want || diag.Any() {
				t.Errorf("%s lenient=%v: format %q diag %v", want, lenient, format, diag)
			}
			assertWorkloadsEqual(t, w, got)
		}
	}
}

func TestReadWorkloadEnforcesSizeCap(t *testing.T) {
	for format, data := range encodings(t, tracetest.Tiny()) {
		for _, lenient := range []bool{false, true} {
			read := func(in []byte, max int64) error {
				_, _, _, err := trace.ReadWorkload(bytes.NewReader(in), trace.ReaderOptions{Lenient: lenient, MaxBytes: max})
				return err
			}
			// A cap below the encoded size must reject with ErrTooLarge.
			if err := read(data, int64(len(data))/2); !errors.Is(err, traceerr.ErrTooLarge) {
				t.Errorf("%s lenient=%v over cap: err = %v, want ErrTooLarge", format, lenient, err)
			}
			// Input of exactly the cap is within it.
			if err := read(data, int64(len(data))); err != nil {
				t.Errorf("%s lenient=%v at exact cap: %v", format, lenient, err)
			}
			// A truncated-but-small input must NOT be misreported as
			// too large. The cut falls inside the first record, so
			// lenient reading has nothing to salvage either.
			err := read(data[:20], int64(len(data)))
			if err == nil || errors.Is(err, traceerr.ErrTooLarge) {
				t.Errorf("%s lenient=%v truncated: err = %v, want a failure that is not ErrTooLarge", format, lenient, err)
			}
		}
	}
}

// TestReadWorkloadClassifiesEveryFailure: whatever goes wrong, the
// boundary's error carries a traceerr class, so ingestion layers map
// it without string matching.
func TestReadWorkloadClassifiesEveryFailure(t *testing.T) {
	enc := encodings(t, tracetest.Tiny())
	noShaders := tracetest.Tiny()
	noShaders.Name = ""
	cases := []struct {
		name  string
		data  []byte
		class error
	}{
		{"empty", nil, traceerr.ErrTruncated},
		{"garbage", []byte("\x05\xff\xff\xff\xff\xff"), traceerr.ErrCorruptRecord},
		{"truncated stream", enc[trace.FormatStream][:20], traceerr.ErrTruncated},
		{"truncated json", enc[trace.FormatJSON][:len(enc[trace.FormatJSON])/2], traceerr.ErrTruncated},
		{"bare magic", []byte(trace.StreamMagic), traceerr.ErrTruncated},
		{"future version", []byte(trace.StreamMagic + "\x07"), traceerr.ErrVersionMismatch},
		{"unnamed json", []byte(`{"Name": ""}`), traceerr.ErrInvalidFrame},
		{"unnamed stream", encodings(t, noShaders)[trace.FormatStream], traceerr.ErrInvalidFrame},
	}
	for _, tc := range cases {
		for _, lenient := range []bool{false, true} {
			_, _, _, err := trace.ReadWorkload(bytes.NewReader(tc.data), trace.ReaderOptions{Lenient: lenient})
			if !errors.Is(err, tc.class) {
				t.Errorf("%s lenient=%v: err = %v, want %v", tc.name, lenient, err, tc.class)
			}
		}
	}
}

// TestReadWorkloadRejectsInvalidDraw: consumers (NewExtractor,
// NewSimulator, the pipeline) trust what the boundary returns, so one
// draw with an impossible overdraw must fail strict reading in every
// encoding, naming the draw, and lenient reading must drop exactly
// that draw.
func TestReadWorkloadRejectsInvalidDraw(t *testing.T) {
	w := tracetest.Tiny()
	w.Frames[0].Draws[0].Overdraw = 0
	for format, data := range encodings(t, w) {
		_, _, _, err := trace.ReadWorkload(bytes.NewReader(data), trace.ReaderOptions{})
		if !errors.Is(err, traceerr.ErrInvalidFrame) || !strings.Contains(err.Error(), "overdraw 0 < 1") {
			t.Errorf("%s strict: err = %v, want invalid overdraw", format, err)
		}
		got, _, diag, err := trace.ReadWorkload(bytes.NewReader(data), trace.ReaderOptions{Lenient: true})
		if err != nil {
			t.Fatalf("%s lenient: %v", format, err)
		}
		if diag.DrawsDropped != 1 || diag.FramesSkipped != 0 || got.NumDraws() != w.NumDraws()-1 {
			t.Errorf("%s lenient: diag %v, %d draws; want 1 of %d dropped", format, diag, got.NumDraws(), w.NumDraws())
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s lenient: repaired workload invalid: %v", format, err)
		}
	}
}

func TestDecodeValidatesContent(t *testing.T) {
	// Encode a workload, then break it *before* encoding so the decoder
	// sees a well-formed container that fails semantic validation.
	w := tracetest.Tiny()
	w.Frames[0].Draws[0].CoverageFrac = 7 // invalid
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Decode(&buf); err == nil {
		t.Error("decoder accepted semantically invalid workload")
	}
}
