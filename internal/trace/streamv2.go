// Stream container v3: the fault-tolerant frame-stream format and the
// one binary encoding of a workload (Workload.Encode writes it too).
//
//	container := magic "3DWS" | version byte (3) | record*
//	record    := sync [4]byte | kind byte | payloadLen uint32le |
//	             crc32le(payload) | payload
//
// kind 1 carries the stream Header, kind 2 one Frame; each payload is
// a self-contained binary record (see codec.go), so any record decodes
// in isolation. At fleet scale truncation and bit rot are routine: a
// reader that finds a bad sync marker, an implausible length, a
// checksum mismatch or a truncated tail can scan forward for the next
// sync marker and re-lock onto the record stream, accounting for every
// byte it had to discard. Older encodings (gob, v1 and v2 streams) are
// rejected, classified, with the advice to regenerate the trace.
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/traceerr"
)

// StreamVersion is the container version written by NewStreamEncoder.
const StreamVersion = 3

// StreamMagic is the byte string that opens a stream container; it is
// how ReadWorkload tells a stream from JSON.
const StreamMagic = "3DWS"

// DefaultMaxRecordBytes caps a single record's payload. Lengths above
// the cap are treated as corruption rather than allocation requests.
const DefaultMaxRecordBytes = 64 << 20

var (
	streamMagic = []byte(StreamMagic)
	recSync     = []byte{0xA9, 0x3D, 0x5C, 0xE2}
)

const (
	recHeaderLen       = 13 // sync(4) + kind(1) + len(4) + crc(4)
	recKindHeader byte = 1
	recKindFrame  byte = 2
)

// regenerate is the remedy every rejected legacy input names.
const regenerate = "regenerate the trace with tracegen"

// recordScanner maintains a sliding window over the input and extracts
// records from it. In lenient mode a malformed region is scanned
// byte-by-byte for the next sync marker; in strict mode the first
// deviation is returned as a typed error. The window reuses one
// backing array, so a payload next returns is only valid until the
// following call.
type recordScanner struct {
	r    io.Reader
	win  []byte // backing array; buf is a window into it
	buf  []byte // bytes read but not yet consumed
	off  int64  // absolute offset of buf[0]
	rerr error  // sticky error from the underlying reader
	recs int    // records delivered; the next one's index
}

const scanChunk = 64 << 10

func (s *recordScanner) fill(n int) {
	for len(s.buf) < n && s.rerr == nil {
		if cap(s.buf)-len(s.buf) < scanChunk {
			// Slide the window to the front of the array, growing the
			// array when n bytes plus a read would not fit.
			if need := max(n, len(s.buf)) + scanChunk; cap(s.win) < need {
				s.win = make([]byte, max(need, 2*cap(s.win)))
			}
			s.buf = s.win[:copy(s.win, s.buf)]
		}
		m, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+m]
		if err != nil {
			s.rerr = err
		}
	}
}

func (s *recordScanner) discard(n int) {
	s.buf = s.buf[n:]
	s.off += int64(n)
}

// next extracts one record. It returns io.EOF at a clean end of input.
// In lenient mode, bytes skipped while regaining record lock are
// accounted in diag; one RecordsResynced increment per lost-lock
// episode.
func (s *recordScanner) next(lenient bool, diag *traceerr.Diagnostics) (byte, []byte, error) {
	resyncing := false
	skip := func(n int) {
		if !resyncing {
			resyncing = true
			diag.RecordsResynced++
		}
		diag.BytesDiscarded += int64(n)
		s.discard(n)
	}
	// reject classifies the damage at the current offset: strict mode
	// fails with it, lenient mode skips n bytes and scans on.
	reject := func(class error, n int, cause error) error {
		if !lenient {
			return recordErr(class, s.recs, s.off, cause)
		}
		skip(n)
		return nil
	}
	for {
		s.fill(recHeaderLen)
		var err error
		switch {
		case len(s.buf) == 0:
			if s.rerr == nil || errors.Is(s.rerr, io.EOF) {
				return 0, nil, io.EOF
			}
			return 0, nil, s.rerr
		case len(s.buf) < recHeaderLen: // tail too short to hold any record
			err = reject(traceerr.ErrTruncated, len(s.buf),
				fmt.Errorf("%d trailing bytes, record header needs %d", len(s.buf), recHeaderLen))
		case !bytes.Equal(s.buf[:4], recSync):
			// Skip to the next marker, or keep a marker-length tail:
			// the marker may straddle the window edge.
			n := bytes.Index(s.buf, recSync)
			if n < 0 {
				n = len(s.buf) - (len(recSync) - 1)
				if s.rerr != nil {
					n = len(s.buf)
				}
			}
			err = reject(traceerr.ErrCorruptRecord, n, errors.New("record boundary marker not found"))
		default:
			kind := s.buf[4]
			plen := binary.LittleEndian.Uint32(s.buf[5:9])
			total := recHeaderLen + int(plen)
			// A false or damaged marker is rescanned from the next byte.
			if (kind != recKindHeader && kind != recKindFrame) || int64(plen) > DefaultMaxRecordBytes {
				err = reject(traceerr.ErrCorruptRecord, 1,
					fmt.Errorf("implausible record header (kind %d, length %d)", kind, plen))
			} else if s.fill(total); len(s.buf) < total {
				err = reject(traceerr.ErrTruncated, 1,
					fmt.Errorf("record needs %d bytes, %d remain", total, len(s.buf)))
			} else if payload := s.buf[recHeaderLen:total]; crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(s.buf[9:13]) {
				err = reject(traceerr.ErrCorruptRecord, 1, errors.New("payload checksum mismatch"))
			} else {
				s.discard(total)
				s.recs++
				return kind, payload, nil
			}
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// ReaderOptions configures the trust boundary: ReadWorkload for whole
// workloads and StreamReader for frame streams. Strict or lenient and
// the size cap are its only two settings.
type ReaderOptions struct {
	// Lenient skips damaged records, invalid frames and invalid draws
	// (accounted in Diagnostics) instead of failing fast. The resource
	// tables (a stream's header record) must still parse — without
	// them no frame can be interpreted.
	Lenient bool

	// MaxBytes caps the input in bytes; reading past it fails with
	// traceerr.ErrTooLarge. Zero means DefaultMaxDecodeBytes for
	// ReadWorkload, which holds the whole workload in memory, and no
	// cap for a StreamReader, whose memory is bounded by one record.
	MaxBytes int64
}

// StreamReader reads a stream container frame by frame with optional
// graceful degradation. Construct with NewStreamReader.
type StreamReader struct {
	opt    ReaderOptions
	capped *cappedReader
	sc     *recordScanner
	shell  *Workload
	check  *drawChecker // one validation pass over the whole stream
	diag   traceerr.Diagnostics
	frames int // frames delivered
}

// NewStreamReader checks the container magic and version, reads and
// validates the stream header, and returns a reader positioned at the
// first frame.
func NewStreamReader(in io.Reader, opt ReaderOptions) (*StreamReader, error) {
	r := &StreamReader{opt: opt, capped: newCappedReader(in, opt.MaxBytes)}
	r.sc = &recordScanner{r: r.capped}
	if err := r.readHeader(); err != nil {
		return nil, r.capped.capErr(fmt.Errorf("trace: decoding stream header: %w", err))
	}
	return r, nil
}

func (r *StreamReader) readHeader() error {
	sc := r.sc
	n := len(streamMagic) + 1
	sc.fill(n)
	switch {
	case len(sc.buf) < n && bytes.HasPrefix(streamMagic, sc.buf):
		return recordErr(traceerr.ErrTruncated, -1, 0,
			fmt.Errorf("%d bytes, the container preamble needs %d", len(sc.buf), n))
	case !bytes.HasPrefix(sc.buf, streamMagic):
		// Most likely a gob trace from an older build.
		return recordErr(traceerr.ErrCorruptRecord, -1, 0, fmt.Errorf("input opens with %q, not the %q "+
			"stream magic or JSON (gob traces are no longer read); %s", sc.buf[:min(n, len(sc.buf))], StreamMagic, regenerate))
	case sc.buf[n-1] != StreamVersion:
		return recordErr(traceerr.ErrVersionMismatch, -1, int64(len(streamMagic)),
			fmt.Errorf("stream version %d, this build reads only v%d; %s", sc.buf[n-1], StreamVersion, regenerate))
	}
	sc.discard(n)
	kind, payload, err := sc.next(r.opt.Lenient, &r.diag)
	switch {
	case errors.Is(err, io.EOF):
		return recordErr(traceerr.ErrTruncated, 0, sc.off, errors.New("stream ends before header record"))
	case err != nil:
		return err
	case kind != recKindHeader:
		return recordErr(traceerr.ErrCorruptRecord, 0, sc.off, fmt.Errorf("first record has kind %d, want header", kind))
	}
	h, err := decodeHeader(payload)
	if err != nil {
		return recordErr(traceerr.ErrCorruptRecord, 0, sc.off, err)
	}
	// A header that decoded but describes no usable workload is
	// classified as invalid content.
	shell, err := h.Shell()
	if err != nil {
		return classed{traceerr.ErrInvalidFrame, err}
	}
	r.shell, r.check = shell, shell.newDrawChecker()
	return nil
}

// recordErr classifies a failure at a record that is not a frame.
func recordErr(class error, record int, offset int64, cause error) error {
	return &traceerr.RecordError{Kind: class, Record: record, Frame: -1, Offset: offset, Cause: cause}
}

// Shell returns the frameless workload the stream's frames belong to.
// Callers must not append frames to it; it exists to resolve resources.
func (r *StreamReader) Shell() *Workload { return r.shell }

// FramesRead returns how many frames have been delivered.
func (r *StreamReader) FramesRead() int { return r.frames }

// Diagnostics returns the degradation accounting so far. In strict
// mode it stays zero.
func (r *StreamReader) Diagnostics() traceerr.Diagnostics { return r.diag }

// NextFrame returns the next valid frame, or io.EOF after the last.
// Strict mode fails on the first damaged record or invalid frame with
// an error classified by the traceerr taxonomy; lenient mode skips the
// damage, accounts for it in Diagnostics, and keeps going. Neither
// mode ever returns a frame without draws.
func (r *StreamReader) NextFrame() (Frame, error) {
	f, err := r.nextFrame()
	if err != nil && err != io.EOF {
		err = r.capped.capErr(err)
	}
	return f, err
}

func (r *StreamReader) nextFrame() (Frame, error) {
	for {
		kind, payload, err := r.sc.next(r.opt.Lenient, &r.diag)
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		if err != nil {
			return Frame{}, fmt.Errorf("trace: decoding frame %d: %w", r.frames, err)
		}
		rec := r.sc.recs - 1
		fail := func(class error, offset int64, cause error) (Frame, error) {
			return Frame{}, fmt.Errorf("trace: decoding frame %d: %w", r.frames, &traceerr.RecordError{
				Kind: class, Record: rec, Frame: r.frames, Offset: offset, Cause: cause})
		}
		if kind != recKindFrame {
			if !r.opt.Lenient {
				return fail(traceerr.ErrCorruptRecord, r.sc.off, fmt.Errorf("unexpected record kind %d mid-stream", kind))
			}
			// A header record mid-stream (e.g. two captures
			// concatenated) is skipped like damage.
			r.diag.RecordsResynced++
			r.diag.BytesDiscarded += int64(recHeaderLen + len(payload))
			continue
		}
		f, err := decodeFrame(payload)
		if err != nil {
			if !r.opt.Lenient {
				return fail(traceerr.ErrCorruptRecord, r.sc.off, err)
			}
			r.diag.FramesSkipped++
			continue
		}
		ok, err := r.check.admit(&f, r.opt.Lenient, &r.diag)
		if err != nil {
			return fail(traceerr.ErrInvalidFrame, -1, fmt.Errorf("frame %d %w", r.frames, err))
		}
		if ok {
			r.frames++
			return f, nil
		}
	}
}
