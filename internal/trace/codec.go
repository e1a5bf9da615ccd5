package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/shader"
)

// Record payloads of stream container v3, written and parsed by hand:
//
//	header  := str(name) n program{n} n texture{n} n target{n}
//	program := u(id) byte(stage) str(name) n (byte(op) byte(slot)){n}
//	texture := i(width) i(height) i(bytesPerTexel) i(mipLevels)
//	target  := i(width) i(height) i(bytesPerPixel) byte(hasDepth: 0|1)
//	frame   := str(scene) n(draws) u(texture slots in the frame) draw{n}
//	draw    := i(vertexCount) i(instanceCount) byte(topology) byte(flags)
//	           u(vs) u(ps) u(rt) u(materialID) n u(textureID){n}
//	           f(coverageFrac) f(overdraw) f(texLocality)
//	str     := n byte{n}
//
// n and u are unsigned LEB128 varints (encoding/binary's Uvarint), ids
// at most 32 bits; i is the uvarint of an int's 64-bit two's
// complement; f is a float64's IEEE-754 bits, 8 bytes little-endian;
// flags holds blend enable in bit 0 and depth enable in bit 1, every
// other bit zero. The container's version byte versions this grammar.
//
// The reader bounds every count by the payload bytes left before it
// allocates, so a record cannot claim more elements than it could
// encode. A frame decodes into one []DrawCall and one []TextureID that
// every draw's Textures is carved from.

// minDrawBytes is the smallest encoded draw: eight one-byte fields, a
// zero texture count and three float64s.
const minDrawBytes = 9 + 3*8

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendInt(b []byte, v int) []byte        { return binary.AppendUvarint(b, uint64(int64(v))) }
func appendStr(b []byte, s string) []byte     { return append(appendUvarint(b, uint64(len(s))), s...) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendHeader(b []byte, h *Header) []byte {
	b = appendStr(b, h.Name)
	b = appendUvarint(b, uint64(len(h.Shaders)))
	for i := range h.Shaders {
		p := &h.Shaders[i]
		b = appendUvarint(b, uint64(p.ID))
		b = append(b, byte(p.Stage))
		b = appendStr(b, p.Name)
		b = appendUvarint(b, uint64(len(p.Body)))
		for _, in := range p.Body {
			b = append(b, byte(in.Op), in.Slot)
		}
	}
	b = appendUvarint(b, uint64(len(h.Textures)))
	for _, t := range h.Textures {
		b = appendInt(appendInt(appendInt(appendInt(b, t.Width), t.Height), t.BytesPerTexel), t.MipLevels)
	}
	b = appendUvarint(b, uint64(len(h.RenderTargets)))
	for _, rt := range h.RenderTargets {
		b = appendInt(appendInt(appendInt(b, rt.Width), rt.Height), rt.BytesPerPixel)
		b = append(b, flag(rt.HasDepth, 0))
	}
	return b
}

func appendFrame(b []byte, f *Frame) []byte {
	b = appendStr(b, f.Scene)
	b = appendUvarint(b, uint64(len(f.Draws)))
	slots := 0
	for i := range f.Draws {
		slots += len(f.Draws[i].Textures)
	}
	b = appendUvarint(b, uint64(slots))
	for i := range f.Draws {
		d := &f.Draws[i]
		b = appendInt(appendInt(b, d.VertexCount), d.InstanceCount)
		b = append(b, byte(d.Topology), flag(d.BlendEnable, 0)|flag(d.DepthEnable, 1))
		b = appendUvarint(appendUvarint(b, uint64(d.VS)), uint64(d.PS))
		b = appendUvarint(appendUvarint(b, uint64(d.RT)), uint64(d.MaterialID))
		b = appendUvarint(b, uint64(len(d.Textures)))
		for _, tid := range d.Textures {
			b = appendUvarint(b, uint64(tid))
		}
		b = appendF64(appendF64(appendF64(b, d.CoverageFrac), d.Overdraw), d.TexLocality)
	}
	return b
}

func flag(v bool, bit uint) byte {
	if v {
		return 1 << bit
	}
	return 0
}

// payloadReader parses one record payload. The first malformed field
// records an error and empties the input, so every later read returns
// zero and every later count is zero: callers check err once, at the
// end.
type payloadReader struct {
	b    []byte
	size int
	err  error
}

func (r *payloadReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed %s at payload byte %d of %d", what, r.size-len(r.b), r.size)
	}
	r.b = nil
}

func (r *payloadReader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) int() int { return int(int64(r.uvarint())) }

func (r *payloadReader) id() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("32-bit id")
		return 0
	}
	return uint32(v)
}

// count reads an element count and rejects it unless that many
// elements of at least minBytes each fit in the payload left.
func (r *payloadReader) count(minBytes int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/minBytes) {
		r.fail("count")
		return 0
	}
	return int(v)
}

// take returns the next n bytes, or n zero bytes past the end.
func (r *payloadReader) take(n int) []byte {
	if len(r.b) < n {
		r.fail("field")
		return make([]byte, n)
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) byte() byte { return r.take(1)[0] }
func (r *payloadReader) f64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.take(8)))
}
func (r *payloadReader) str() string { return string(r.take(r.count(1))) }

// done fails a payload with bytes left over and returns the error.
func (r *payloadReader) done() error {
	if len(r.b) != 0 {
		r.fail("record: trailing bytes")
	}
	return r.err
}

func decodeHeader(p []byte) (Header, error) {
	r := &payloadReader{b: p, size: len(p)}
	h := Header{Name: r.str()}
	h.Shaders = make([]shader.Program, r.count(4))
	for i := range h.Shaders {
		sp := &h.Shaders[i]
		sp.ID = shader.ID(r.id())
		sp.Stage = shader.Stage(r.byte())
		sp.Name = r.str()
		sp.Body = make([]shader.Instr, r.count(2))
		for j := range sp.Body {
			sp.Body[j] = shader.Instr{Op: shader.Op(r.byte()), Slot: r.byte()}
		}
	}
	h.Textures = make([]Texture, r.count(4))
	for i := range h.Textures {
		h.Textures[i] = Texture{Width: r.int(), Height: r.int(), BytesPerTexel: r.int(), MipLevels: r.int()}
	}
	h.RenderTargets = make([]RenderTarget, r.count(4))
	for i := range h.RenderTargets {
		rt := &h.RenderTargets[i]
		rt.Width, rt.Height, rt.BytesPerPixel = r.int(), r.int(), r.int()
		if depth := r.byte(); depth > 1 {
			r.fail("render target depth flag")
		} else {
			rt.HasDepth = depth == 1
		}
	}
	return h, r.done()
}

func decodeFrame(p []byte) (Frame, error) {
	r := &payloadReader{b: p, size: len(p)}
	f := Frame{Scene: r.str()}
	f.Draws = make([]DrawCall, r.count(minDrawBytes))
	slots := make([]TextureID, r.count(1))
	for i := range f.Draws {
		d := &f.Draws[i]
		d.VertexCount, d.InstanceCount = r.int(), r.int()
		d.Topology = Topology(r.byte())
		flags := r.byte()
		if flags&^3 != 0 {
			r.fail("draw flags")
		}
		d.BlendEnable, d.DepthEnable = flags&1 != 0, flags&2 != 0
		d.VS, d.PS = shader.ID(r.id()), shader.ID(r.id())
		d.RT, d.MaterialID = RTID(r.id()), r.id()
		if n := r.count(1); n > len(slots) {
			r.fail("texture slot count")
		} else if n > 0 {
			d.Textures, slots = slots[:n:n], slots[n:]
			for j := range d.Textures {
				d.Textures[j] = TextureID(r.id())
			}
		}
		d.CoverageFrac, d.Overdraw, d.TexLocality = r.f64(), r.f64(), r.f64()
	}
	if len(slots) != 0 {
		r.fail("frame texture slot total")
	}
	return f, r.done()
}
