package trace

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/shader"
	"repro/internal/traceerr"
)

// DefaultMaxDecodeBytes caps how much input ReadWorkload (and so
// Decode) consumes before rejecting it with traceerr.ErrTooLarge — a
// guard against hostile or garbage inputs that would otherwise be
// buffered without bound. ReaderOptions.MaxBytes sets another cap.
const DefaultMaxDecodeBytes int64 = 1 << 30 // 1 GiB

// Format names one of the workload encodings ReadWorkload accepts.
type Format string

// The encodings, told apart by their first bytes.
const (
	FormatStream Format = "stream" // stream container: opens with StreamMagic
	FormatJSON   Format = "json"   // EncodeJSON output: opens with '{'
	FormatGob    Format = "gob"    // Encode output: anything else
)

// cappedReader fails with traceerr.ErrTooLarge once the input runs
// past max bytes, and remembers that it did: gob, json and the stream
// scanner may rewrap or swallow the error, so callers check the flag
// rather than the chain. Input of exactly max bytes is within the cap.
type cappedReader struct {
	r        io.Reader
	max      int64
	left     int64
	exceeded bool
}

// newCappedReader caps r at max bytes; max <= 0 means no cap.
func newCappedReader(r io.Reader, max int64) *cappedReader {
	if max <= 0 {
		max = math.MaxInt64
	}
	return &cappedReader{r: r, max: max, left: max}
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		// At the cap: only a clean end of input stays within it.
		var probe [1]byte
		if n, err := io.ReadFull(c.r, probe[:]); n == 0 && err == io.EOF {
			return 0, io.EOF
		}
		c.exceeded = true
		return 0, traceerr.ErrTooLarge
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

// capErr replaces err with the size-cap error once the cap was hit.
func (c *cappedReader) capErr(err error) error {
	if c.exceeded {
		return fmt.Errorf("trace: input exceeds %d-byte decode cap: %w", c.max, traceerr.ErrTooLarge)
	}
	return err
}

// classed files an error under a traceerr class without changing its
// text: strict callers see the decoder's own message, ingestion layers
// still branch with errors.Is.
type classed struct{ class, err error }

func (c classed) Error() string   { return c.err.Error() }
func (c classed) Unwrap() []error { return []error{c.class, c.err} }

// wire is the serialization form of Workload. The shader registry has
// unexported bookkeeping, so programs travel as a flat slice and the
// registry is rebuilt on decode.
type wire struct {
	Name          string
	Frames        []Frame
	Shaders       []shader.Program
	Textures      []Texture
	RenderTargets []RenderTarget
}

func (w *Workload) toWire() wire {
	progs := w.Shaders.Programs()
	flat := make([]shader.Program, len(progs))
	for i, p := range progs {
		flat[i] = *p
	}
	return wire{
		Name:          w.Name,
		Frames:        w.Frames,
		Shaders:       flat,
		Textures:      w.Textures,
		RenderTargets: w.RenderTargets,
	}
}

// restoreWire rebuilds the in-memory workload without judging its
// content: the strict path validates afterwards, the lenient path
// sanitizes instead.
func restoreWire(ww wire) (*Workload, error) {
	progs := make([]*shader.Program, len(ww.Shaders))
	for i := range ww.Shaders {
		progs[i] = &ww.Shaders[i]
	}
	reg, err := shader.RestoreRegistry(progs)
	if err != nil {
		return nil, fmt.Errorf("trace: restoring shaders: %w", classed{traceerr.ErrInvalidFrame, err})
	}
	return &Workload{
		Name:          ww.Name,
		Frames:        ww.Frames,
		Shaders:       reg,
		Textures:      ww.Textures,
		RenderTargets: ww.RenderTargets,
	}, nil
}

// Encode writes the workload in the library's binary (gob) format.
func (w *Workload) Encode(out io.Writer) error {
	if err := gob.NewEncoder(out).Encode(w.toWire()); err != nil {
		return fmt.Errorf("trace: encoding workload %q: %w", w.Name, err)
	}
	return nil
}

// EncodeJSON writes the workload as indented JSON, for inspection and
// interchange with non-Go tooling.
func (w *Workload) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(w.toWire()); err != nil {
		return fmt.Errorf("trace: JSON-encoding workload %q: %w", w.Name, err)
	}
	return nil
}

// Decode is ReadWorkload in strict mode under DefaultMaxDecodeBytes:
// it reads a workload in any of the three encodings and rejects it
// unless it is valid as a whole.
func Decode(in io.Reader) (*Workload, error) {
	w, _, _, err := ReadWorkload(in, ReaderOptions{})
	return w, err
}

// ReadWorkload is the trust boundary for whole workloads: the one
// place outside bytes become a *Workload. The encoding is sniffed from
// the first bytes: StreamMagic opens a stream container, '{' opens
// JSON and anything else is gob.
//
// Input past opt.MaxBytes (DefaultMaxDecodeBytes when zero) fails with
// traceerr.ErrTooLarge. Strict mode rejects the first invalid frame or
// draw; lenient mode drops them instead, with the accounting returned
// in the diagnostics, and fails only when nothing usable survives.
// Every failure is classified under a traceerr sentinel. A returned
// workload passes Validate, so consumers take it on trust.
func ReadWorkload(in io.Reader, opt ReaderOptions) (*Workload, Format, traceerr.Diagnostics, error) {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = DefaultMaxDecodeBytes
	}
	br := bufio.NewReader(in)
	// A short or failed peek still returns what it read: no bytes is
	// empty input, otherwise the decoder chosen from them meets the
	// same end or error and reports it in context.
	head, _ := br.Peek(len(streamMagic))
	switch {
	case len(head) == 0:
		return nil, "", traceerr.Diagnostics{}, fmt.Errorf("trace: empty input: %w", traceerr.ErrTruncated)
	case bytes.HasPrefix(head, streamMagic) || bytes.HasPrefix(streamMagic, head):
		w, diag, err := readStreamWorkload(br, opt)
		return w, FormatStream, diag, err
	case head[0] == '{':
		w, diag, err := readWire(br, opt, "JSON-decoding", func(r io.Reader, ww *wire) error {
			return json.NewDecoder(r).Decode(ww)
		})
		return w, FormatJSON, diag, err
	default:
		w, diag, err := readWire(br, opt, "decoding", func(r io.Reader, ww *wire) error {
			return gob.NewDecoder(r).Decode(ww)
		})
		return w, FormatGob, diag, err
	}
}

// readWire decodes one whole-workload value (gob or JSON), then
// validates or, leniently, sanitizes it.
func readWire(in io.Reader, opt ReaderOptions, verb string, decode func(io.Reader, *wire) error) (*Workload, traceerr.Diagnostics, error) {
	var diag traceerr.Diagnostics
	capped := newCappedReader(in, opt.MaxBytes)
	var ww wire
	if err := decode(capped, &ww); err != nil {
		if !capped.exceeded {
			err = classed{classifyDecodeErr(err), err}
		}
		return nil, diag, fmt.Errorf("trace: %s workload: %w", verb, capped.capErr(err))
	}
	w, err := restoreWire(ww)
	if err != nil {
		return nil, diag, err
	}
	if opt.Lenient {
		diag, err = w.Sanitize()
		if err != nil {
			return nil, diag, err
		}
		return w, diag, nil
	}
	if err := w.Validate(); err != nil {
		return nil, diag, fmt.Errorf("trace: decoded workload invalid: %w", classed{traceerr.ErrInvalidFrame, err})
	}
	return w, diag, nil
}

// readStreamWorkload assembles a whole workload from a stream
// container. The reader validates (or sanitizes) the header and every
// frame on the way; a stream that yields no usable frame is invalid.
func readStreamWorkload(in io.Reader, opt ReaderOptions) (*Workload, traceerr.Diagnostics, error) {
	sr, err := NewStreamReader(in, opt)
	if err != nil {
		return nil, traceerr.Diagnostics{}, err
	}
	var frames []Frame
	for {
		f, err := sr.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, sr.Diagnostics(), err
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		return nil, sr.Diagnostics(), fmt.Errorf("trace: stream yields no usable frames: %w", traceerr.ErrInvalidFrame)
	}
	w := *sr.Shell()
	w.Frames = frames
	return &w, sr.Diagnostics(), nil
}
