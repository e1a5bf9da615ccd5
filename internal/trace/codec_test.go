package trace_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"repro/internal/shader"
	"repro/internal/trace"
	"repro/internal/traceerr"
	"repro/internal/tracetest"
)

// legacyGob returns w as the whole-file gob encoding older builds
// wrote and read.
func legacyGob(t testing.TB, w *trace.Workload) []byte {
	t.Helper()
	h := trace.HeaderOf(w)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Name          string
		Frames        []trace.Frame
		Shaders       []shader.Program
		Textures      []trace.Texture
		RenderTargets []trace.RenderTarget
	}{w.Name, w.Frames, h.Shaders, h.Textures, h.RenderTargets})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadWorkloadRejectsLegacyInputs: bytes from older builds fail
// classified — a versioned container as a version mismatch, anything
// without the magic as corruption naming the remedy — never as a
// panic or an unclassified error.
func TestReadWorkloadRejectsLegacyInputs(t *testing.T) {
	w := tracetest.Tiny()
	var v3 bytes.Buffer
	if err := w.Encode(&v3); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte(nil), v3.Bytes()...)
	v2[len(trace.StreamMagic)] = 2
	var v1 bytes.Buffer // a v1 stream: bare gob header then frames
	if err := gob.NewEncoder(&v1).Encode(trace.HeaderOf(w)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		data    []byte
		class   error
		mention string
	}{
		{"v2 stream", v2, traceerr.ErrVersionMismatch, "tracegen"},
		{"v1 stream", v1.Bytes(), traceerr.ErrCorruptRecord, "tracegen"},
		{"gob workload", legacyGob(t, w), traceerr.ErrCorruptRecord, "tracegen"},
		{"binary garbage", []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05}, traceerr.ErrCorruptRecord, "tracegen"},
	}
	for _, tc := range cases {
		for _, lenient := range []bool{false, true} {
			opt := trace.ReaderOptions{Lenient: lenient}
			_, _, _, err := trace.ReadWorkload(bytes.NewReader(tc.data), opt)
			if !errors.Is(err, tc.class) || !strings.Contains(err.Error(), tc.mention) {
				t.Errorf("%s lenient=%v: ReadWorkload err = %v, want %v naming %q", tc.name, lenient, err, tc.class, tc.mention)
			}
			_, err = trace.NewStreamReader(bytes.NewReader(tc.data), opt)
			if !errors.Is(err, tc.class) {
				t.Errorf("%s lenient=%v: NewStreamReader err = %v, want %v", tc.name, lenient, err, tc.class)
			}
		}
	}
}

// frameRecord frames payload as a checksummed frame record.
func frameRecord(payload []byte) []byte {
	rec := []byte{0xA9, 0x3D, 0x5C, 0xE2, 2}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// TestHostileFrameCountsAllocateNothing: a frame record whose checksum
// holds but whose counts claim far more elements than its bytes could
// encode is corruption, rejected before anything is allocated.
func TestHostileFrameCountsAllocateNothing(t *testing.T) {
	data, starts := encodeV2Boundaries(t, tracetest.Tiny())
	header := data[:starts[0]]
	pad := func(b []byte) []byte { return append(b, make([]byte, 20-len(b))...) }
	cases := map[string][]byte{
		// Empty scene, then 2^32 draws, in 20 bytes.
		"draw count": pad(binary.AppendUvarint([]byte{0}, 1<<32)),
		// Empty scene, one draw, then 2^32 texture slots.
		"slot count": pad(binary.AppendUvarint([]byte{0, 1}, 1<<32)),
		// A scene name 2^40 bytes long.
		"scene length": pad(binary.AppendUvarint(nil, 1<<40)),
	}
	for name, payload := range cases {
		stream := append(append([]byte(nil), header...), frameRecord(payload)...)
		for _, lenient := range []bool{false, true} {
			r, err := trace.NewStreamReader(bytes.NewReader(stream), trace.ReaderOptions{Lenient: lenient})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = r.NextFrame()
			runtime.ReadMemStats(&after)
			if lenient {
				if err == nil || r.Diagnostics().FramesSkipped != 1 {
					t.Errorf("%s lenient: err = %v diag %v, want the frame skipped", name, err, r.Diagnostics())
				}
			} else if !errors.Is(err, traceerr.ErrCorruptRecord) {
				t.Errorf("%s strict: err = %v, want ErrCorruptRecord", name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s lenient=%v: rejecting the record allocated %d bytes", name, lenient, grew)
			}
		}
	}
}

// TestMalformedPayloadsAreCorrupt: a record whose checksum holds but
// whose payload is cut short anywhere, or runs on past its last field,
// is a corrupt record — for the header and for a frame alike.
func TestMalformedPayloadsAreCorrupt(t *testing.T) {
	data, starts := encodeV2Boundaries(t, tracetest.Tiny())
	const preamble = len(trace.StreamMagic) + 1
	const recHeader = 13
	headerPayload := data[preamble+recHeader : starts[0]]
	framePayload := data[starts[0]+recHeader : starts[1]]
	withHeader := func(payload []byte) []byte {
		rec := frameRecord(payload)
		rec[4] = 1 // header kind
		return append([]byte(trace.StreamMagic+"\x03"), rec...)
	}
	malformed := func(p []byte) [][]byte {
		out := [][]byte{append(append([]byte(nil), p...), 0)}
		for n := 0; n < len(p); n++ {
			out = append(out, p[:n])
		}
		return out
	}
	for _, p := range malformed(headerPayload) {
		if _, err := trace.NewStreamReader(bytes.NewReader(withHeader(p)), trace.ReaderOptions{}); !errors.Is(err, traceerr.ErrCorruptRecord) {
			t.Fatalf("header payload of %d bytes: err = %v, want ErrCorruptRecord", len(p), err)
		}
	}
	for _, p := range malformed(framePayload) {
		stream := append(append([]byte(nil), data[:starts[0]]...), frameRecord(p)...)
		r, err := trace.NewStreamReader(bytes.NewReader(stream), trace.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.NextFrame(); !errors.Is(err, traceerr.ErrCorruptRecord) {
			t.Fatalf("frame payload of %d bytes: err = %v, want ErrCorruptRecord", len(p), err)
		}
	}
}

// TestDecodedTexturesDoNotAlias: draws share one backing array for
// their texture slots, capped per draw, so growing one draw's slots
// must not write into its neighbour's.
func TestDecodedTexturesDoNotAlias(t *testing.T) {
	var buf bytes.Buffer
	if err := tracetest.Tiny().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	draws := w.Frames[0].Draws
	if len(draws[0].Textures) == 0 || len(draws[1].Textures) == 0 {
		t.Fatal("fixture needs textured neighbours")
	}
	next := append([]trace.TextureID(nil), draws[1].Textures...)
	draws[0].Textures = append(draws[0].Textures, 99, 99, 99)
	for i, tid := range draws[1].Textures {
		if tid != next[i] {
			t.Fatalf("appending to draw 0's textures changed draw 1's slot %d to %d", i, tid)
		}
	}
}

// TestDecodeAllocsPerFrameNotPerDraw: strict decoding allocates a
// fixed number of objects per frame, however many draws it holds.
func TestDecodeAllocsPerFrameNotPerDraw(t *testing.T) {
	allocs := func(drawsPerFrame int) float64 {
		w := tracetest.Tiny()
		for fi := range w.Frames {
			f := &w.Frames[fi]
			base := f.Draws
			for len(f.Draws) < drawsPerFrame {
				f.Draws = append(f.Draws, base...)
			}
		}
		var buf bytes.Buffer
		if err := w.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(20, func() {
			if _, err := trace.Decode(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	sparse, dense := allocs(4), allocs(64)
	if dense > sparse {
		t.Errorf("decoding 64 draws per frame took %.0f allocations, 4 draws per frame %.0f: want no growth with draws", dense, sparse)
	}
}
