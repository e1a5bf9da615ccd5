package trace

import (
	"encoding/gob"
	"fmt"
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

// StreamEncoder writes a workload as header + one record per frame, so
// arbitrarily long captures encode in bounded memory. New streams are
// written in format v2 (checksummed, resyncable); NewStreamEncoderV1
// keeps the legacy raw-gob writer for compatibility tooling.
type StreamEncoder struct {
	writeFrame func(*Frame) error
	frames     int
}

// NewStreamEncoder writes the v2 container header and stream header
// record immediately.
func NewStreamEncoder(out io.Writer, h Header) (*StreamEncoder, error) {
	w, err := newStreamWriterV2(out, h)
	if err != nil {
		return nil, err
	}
	return &StreamEncoder{writeFrame: w.writeFrame}, nil
}

// NewStreamEncoderV1 writes the legacy v1 format: a bare gob stream of
// header then frames, with no magic, framing or checksums. It exists so
// compatibility with already-captured fleets can be tested; new
// captures should use NewStreamEncoder.
func NewStreamEncoderV1(out io.Writer, h Header) (*StreamEncoder, error) {
	enc := gob.NewEncoder(out)
	if err := enc.Encode(h); err != nil {
		return nil, fmt.Errorf("trace: encoding stream header: %w", err)
	}
	return &StreamEncoder{writeFrame: func(f *Frame) error {
		return enc.Encode(f)
	}}, nil
}

// WriteFrame appends one frame record.
func (e *StreamEncoder) WriteFrame(f *Frame) error {
	if err := e.writeFrame(f); err != nil {
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
