package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/shader"
)

// Header is a workload's frame-independent part: identity plus the
// resource tables every draw references. It travels once at the front
// of a frame stream.
type Header struct {
	Name          string
	Shaders       []shader.Program
	Textures      []Texture
	RenderTargets []RenderTarget
}

// HeaderOf extracts the header of an in-memory workload.
func HeaderOf(w *Workload) Header {
	progs := w.Shaders.Programs()
	flat := make([]shader.Program, len(progs))
	for i, p := range progs {
		flat[i] = *p
	}
	return Header{
		Name:          w.Name,
		Shaders:       flat,
		Textures:      w.Textures,
		RenderTargets: w.RenderTargets,
	}
}

// Shell materializes a frameless Workload from the header — the
// resource context streaming consumers (extractors, simulators) bind
// against while frames flow past.
func (h Header) Shell() (*Workload, error) {
	progs := make([]*shader.Program, len(h.Shaders))
	for i := range h.Shaders {
		p := h.Shaders[i]
		progs[i] = &p
	}
	reg, err := shader.RestoreRegistry(progs)
	if err != nil {
		return nil, fmt.Errorf("trace: stream header: %w", err)
	}
	if h.Name == "" {
		return nil, fmt.Errorf("trace: stream header has empty name")
	}
	return &Workload{
		Name:          h.Name,
		Shaders:       reg,
		Textures:      h.Textures,
		RenderTargets: h.RenderTargets,
	}, nil
}

// StreamEncoder writes a workload as a stream container: the header
// record, then one record per frame, so arbitrarily long captures
// encode in bounded memory.
type StreamEncoder struct {
	w      io.Writer
	rec    []byte // reused record buffer: header bytes, then payload
	frames int
}

// NewStreamEncoder writes the container preamble and the stream header
// record immediately.
func NewStreamEncoder(out io.Writer, h Header) (*StreamEncoder, error) {
	if _, err := out.Write(append([]byte(StreamMagic), StreamVersion)); err != nil {
		return nil, fmt.Errorf("trace: writing stream magic: %w", err)
	}
	e := &StreamEncoder{w: out, rec: make([]byte, recHeaderLen, 64<<10)}
	if err := e.writeRecord(recKindHeader, appendHeader(e.rec[:recHeaderLen], &h)); err != nil {
		return nil, fmt.Errorf("trace: encoding stream header: %w", err)
	}
	return e, nil
}

// writeRecord frames rec's payload, which follows recHeaderLen bytes
// reserved for the record header, and writes the record in one call.
func (e *StreamEncoder) writeRecord(kind byte, rec []byte) error {
	e.rec = rec
	payload := rec[recHeaderLen:]
	if len(payload) > DefaultMaxRecordBytes {
		return fmt.Errorf("record payload of %d bytes exceeds the %d-byte cap", len(payload), DefaultMaxRecordBytes)
	}
	copy(rec, recSync)
	rec[4] = kind
	binary.LittleEndian.PutUint32(rec[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[9:13], crc32.ChecksumIEEE(payload))
	_, err := e.w.Write(rec)
	return err
}

// WriteFrame appends one frame record.
func (e *StreamEncoder) WriteFrame(f *Frame) error {
	if err := e.writeRecord(recKindFrame, appendFrame(e.rec[:recHeaderLen], f)); err != nil {
		return fmt.Errorf("trace: encoding frame %d: %w", e.frames, err)
	}
	e.frames++
	return nil
}

// Frames returns the number of frames written so far.
func (e *StreamEncoder) Frames() int { return e.frames }

// EncodeStream writes an entire in-memory workload in stream format —
// the bridge from batch tooling to streaming consumers.
func EncodeStream(out io.Writer, w *Workload) error {
	enc, err := NewStreamEncoder(out, HeaderOf(w))
	if err != nil {
		return err
	}
	for i := range w.Frames {
		if err := enc.WriteFrame(&w.Frames[i]); err != nil {
			return err
		}
	}
	return nil
}
