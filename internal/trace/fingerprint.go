package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
)

// Fingerprint is the SHA-256 of a workload's canonical encoding: the
// content-address the result cache keys every derived computation on.
// Two workloads share a fingerprint exactly when every input the
// pipeline reads — frames, draws, shaders, textures, render targets —
// is identical.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fingerprintVersion versions the canonical encoding itself. Bump it
// whenever the encoding below changes (field added, order changed), so
// fingerprints from older builds can never alias new ones.
const fingerprintVersion = 1

// fpWriter serializes workload content into a hash with a fixed field
// order and fixed-width integer encoding, so the digest is independent
// of map iteration, pointer values, or encoding-library internals.
// Fields are appended to a buffer that reaches SHA-256 in blocks of
// about fpBlock bytes: one hash call per block, not per 8-byte field.
// Buffering changes only the call pattern, never the bytes hashed.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

const fpBlock = 4 << 10

func (w *fpWriter) u64(v uint64) { binary.BigEndian.PutUint64(w.room(8), v) }
func (w *fpWriter) i(v int)      { w.u64(uint64(int64(v))) }
func (w *fpWriter) str(s string) { w.u64(uint64(len(s))); copy(w.room(len(s)), s) }
func (w *fpWriter) flag(v bool)  { w.u64(uint64(flag(v, 0))) }

// room extends the buffer by n bytes and returns them for the caller
// to fill, first flushing a full block.
func (w *fpWriter) room(n int) []byte {
	if len(w.buf) >= fpBlock {
		w.flush()
	}
	l := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:l+n]
	return w.buf[l:]
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

// Fingerprint computes the workload's content fingerprint in one pass.
// It walks every field the pipeline can read; capture metadata that
// influences output (scene names feed evaluation, material ids feed
// validity scoring) is included. The cost is one linear hash over the
// workload (~100 bytes/draw); callers that need it repeatedly should
// compute it once and pass it down, which is what core does when a
// cache is attached.
func (w *Workload) Fingerprint() Fingerprint {
	fw := &fpWriter{h: sha256.New(), buf: make([]byte, 0, 2*fpBlock)}
	fw.u64(fingerprintVersion)
	fw.str(w.Name)

	fw.i(len(w.Textures))
	for _, t := range w.Textures {
		fw.i(t.Width)
		fw.i(t.Height)
		fw.i(t.BytesPerTexel)
		fw.i(t.MipLevels)
	}
	fw.i(len(w.RenderTargets))
	for _, rt := range w.RenderTargets {
		fw.i(rt.Width)
		fw.i(rt.Height)
		fw.i(rt.BytesPerPixel)
		fw.flag(rt.HasDepth)
	}
	if w.Shaders == nil {
		fw.i(0)
	} else {
		progs := w.Shaders.Programs() // id order: deterministic
		fw.i(len(progs))
		for _, p := range progs {
			fw.u64(uint64(p.ID))
			fw.u64(uint64(p.Stage))
			fw.str(p.Name)
			fw.i(len(p.Body))
			for _, in := range p.Body {
				fw.u64(uint64(in.Op)<<8 | uint64(in.Slot))
			}
		}
	}

	fw.i(len(w.Frames))
	for fi := range w.Frames {
		f := &w.Frames[fi]
		fw.str(f.Scene)
		fw.i(len(f.Draws))
		for di := range f.Draws {
			// The draw loop is the hot path: each draw's fields go
			// into one reserved run of the buffer, in the same order
			// and widths the scalar writers would produce.
			d := &f.Draws[di]
			b := fw.room(8 * (13 + len(d.Textures)))
			be := binary.BigEndian
			be.PutUint64(b[0:], uint64(int64(d.VertexCount)))
			be.PutUint64(b[8:], uint64(int64(d.InstanceCount)))
			be.PutUint64(b[16:], uint64(d.Topology))
			be.PutUint64(b[24:], uint64(d.VS))
			be.PutUint64(b[32:], uint64(d.PS))
			be.PutUint64(b[40:], uint64(len(d.Textures)))
			b = b[48:]
			for _, tid := range d.Textures {
				be.PutUint64(b, uint64(tid))
				b = b[8:]
			}
			be.PutUint64(b[0:], uint64(d.RT))
			be.PutUint64(b[8:], uint64(flag(d.BlendEnable, 0)))
			be.PutUint64(b[16:], uint64(flag(d.DepthEnable, 0)))
			be.PutUint64(b[24:], math.Float64bits(d.CoverageFrac))
			be.PutUint64(b[32:], math.Float64bits(d.Overdraw))
			be.PutUint64(b[40:], math.Float64bits(d.TexLocality))
			be.PutUint64(b[48:], uint64(d.MaterialID))
		}
	}

	fw.flush()
	var fp Fingerprint
	fw.h.Sum(fp[:0])
	return fp
}
