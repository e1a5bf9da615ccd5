package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

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
	FormatStream Format = "stream" // Encode/EncodeStream output: opens with StreamMagic
	FormatJSON   Format = "json"   // EncodeJSON output: opens with '{'
)

// cappedReader fails with traceerr.ErrTooLarge once the input runs
// past max bytes, and remembers that it did: json and the stream
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

// wire is the JSON form of Workload: the shader registry has
// unexported bookkeeping, so it travels as the header's flat program
// slice and is rebuilt on decode.
type wire struct {
	Header
	Frames []Frame
}

// Encode writes the workload as a stream container, the library's
// binary format; it is EncodeStream.
func (w *Workload) Encode(out io.Writer) error { return EncodeStream(out, w) }

// EncodeJSON writes the workload as indented JSON, for inspection and
// interchange with non-Go tooling.
func (w *Workload) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(wire{HeaderOf(w), w.Frames}); err != nil {
		return fmt.Errorf("trace: JSON-encoding workload %q: %w", w.Name, err)
	}
	return nil
}

// Decode is ReadWorkload in strict mode under DefaultMaxDecodeBytes:
// it reads a workload in either encoding and rejects it unless it is
// valid as a whole.
func Decode(in io.Reader) (*Workload, error) {
	w, _, _, err := ReadWorkload(in, ReaderOptions{})
	return w, err
}

// ReadWorkload is the trust boundary for whole workloads: the one
// place outside bytes become a *Workload. The encoding is sniffed from
// the first byte: '{' opens JSON, anything else must be a stream
// container. Input that is neither — a gob trace from an older build,
// say — fails with traceerr.ErrCorruptRecord.
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
	// A failed peek leaves the stream reader to meet the same end or
	// error and report it in context.
	if head, _ := br.Peek(1); len(head) == 1 && head[0] == '{' {
		w, diag, err := readJSON(br, opt)
		return w, FormatJSON, diag, err
	}
	w, diag, err := readStreamWorkload(br, opt)
	return w, FormatStream, diag, err
}

// readJSON decodes a whole JSON workload and admits its frames as a
// stream reader admits a stream's.
func readJSON(in io.Reader, opt ReaderOptions) (*Workload, traceerr.Diagnostics, error) {
	var diag traceerr.Diagnostics
	capped := newCappedReader(in, opt.MaxBytes)
	var ww wire
	if err := json.NewDecoder(capped).Decode(&ww); err != nil {
		if !capped.exceeded {
			class := traceerr.ErrCorruptRecord
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				class = traceerr.ErrTruncated
			}
			err = classed{class, err}
		}
		return nil, diag, fmt.Errorf("trace: JSON-decoding workload: %w", capped.capErr(err))
	}
	shell, err := ww.Header.Shell()
	if err != nil {
		return nil, diag, fmt.Errorf("trace: decoded workload invalid: %w", classed{traceerr.ErrInvalidFrame, err})
	}
	c, frames := shell.newDrawChecker(), ww.Frames[:0]
	for fi, f := range ww.Frames {
		ok, err := c.admit(&f, opt.Lenient, &diag)
		if err != nil {
			return nil, diag, fmt.Errorf("trace: decoded workload invalid: frame %d %w", fi, classed{traceerr.ErrInvalidFrame, err})
		}
		if ok {
			frames = append(frames, f)
		}
	}
	return assemble(shell, frames, diag)
}

// readStreamWorkload assembles a whole workload from a stream
// container, whose reader validates (or sanitizes) the header and
// every frame on the way.
func readStreamWorkload(in io.Reader, opt ReaderOptions) (*Workload, traceerr.Diagnostics, error) {
	sr, err := NewStreamReader(in, opt)
	if err != nil {
		return nil, traceerr.Diagnostics{}, err
	}
	var frames []Frame
	for {
		f, err := sr.NextFrame()
		if errors.Is(err, io.EOF) {
			return assemble(sr.Shell(), frames, sr.Diagnostics())
		}
		if err != nil {
			return nil, sr.Diagnostics(), err
		}
		frames = append(frames, f)
	}
}

// assemble completes a read: the admitted frames on the shell, or
// traceerr.ErrInvalidFrame when none survived.
func assemble(shell *Workload, frames []Frame, diag traceerr.Diagnostics) (*Workload, traceerr.Diagnostics, error) {
	if len(frames) == 0 {
		return nil, diag, fmt.Errorf("trace: workload %q has no usable frames: %w", shell.Name, traceerr.ErrInvalidFrame)
	}
	w := *shell
	w.Frames = frames
	return &w, diag, nil
}
