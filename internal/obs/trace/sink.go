package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Sink receives completed spans. Emit is called synchronously from
// Finish (and from queue transitions), so implementations must be fast
// and safe for concurrent use; they must not retain d or its slices
// after returning — the span behind them is pooled (Clone to buffer).
type Sink interface {
	Emit(d *SpanData)
}

// NopSink drops everything — the default for tracers without a
// configured sink, and the zero-overhead sink for the zero-alloc test.
type NopSink struct{}

// Emit implements Sink.
func (NopSink) Emit(*SpanData) {}

// CollectSink buffers cloned spans in memory. Test seam: the trace,
// campaignd and frame-step tests collect spans in it.
type CollectSink struct {
	mu    sync.Mutex
	spans []SpanData
}

// Emit implements Sink.
func (c *CollectSink) Emit(d *SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, d.Clone())
}

// Spans returns a snapshot of everything emitted so far. Test seam: the
// tests that collect spans read them back through it.
func (c *CollectSink) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

// The durable sink: FTDC-style length-delimited binary records in
// rotating segment files inside one directory, with a total-size cap —
// a ring, so tracing is always-on without unbounded disk growth.
// Each record goes to the file in one write, unbuffered, so a span is
// in the file once Emit returns and a killed process loses none of
// them. Like the FTDC capture and the runq journal, a torn tail (the
// process died mid-write) costs at most the final record; decode stops
// cleanly at the tear.

// fileMagic opens every segment file. Its last byte is the record
// format's version, so a reader refuses a segment of another version
// (bad magic) instead of misparsing its records.
const fileMagic = "robotack-trace\x02"

// DefaultSegmentBytes is the segment roll threshold.
const DefaultSegmentBytes = 4 << 20

// DefaultCapBytes is the default ring cap across all segments.
const DefaultCapBytes = 64 << 20

// segPattern names segment files; the sequence number orders them.
const segPattern = "trace-%06d.bin"

// FileSink persists spans to a size-capped ring of binary segment
// files under dir. Safe for concurrent Emit.
type FileSink struct {
	dir      string
	segBytes int64
	capBytes int64

	mu      sync.Mutex
	f       *os.File // the active segment, nil once closed
	seq     int
	written int64
	// span and rec are Emit's reused buffers: the encoded span, and the
	// record written for it (its length prefix, then the span).
	span, rec []byte
	// err is the first write or roll error. It breaks the sink: later
	// spans are dropped, and Close returns it.
	err error
}

// SinkOption configures a FileSink.
type SinkOption func(*FileSink)

// WithSegmentBytes overrides the segment roll threshold. Test seam:
// TestFileSinkRingCap rolls small segments with it.
func WithSegmentBytes(n int64) SinkOption {
	return func(s *FileSink) {
		if n > 0 {
			s.segBytes = n
		}
	}
}

// NewFileSink opens (creating if needed) a span ring under dir capped
// at capBytes total (<=0: DefaultCapBytes). Each process appends a
// fresh segment — segments are never reopened for append, so a
// previous process's torn tail stays confined to its own file.
func NewFileSink(dir string, capBytes int64, opts ...SinkOption) (*FileSink, error) {
	if capBytes <= 0 {
		capBytes = DefaultCapBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: create sink dir: %w", err)
	}
	s := &FileSink{dir: dir, segBytes: DefaultSegmentBytes, capBytes: capBytes}
	for _, opt := range opts {
		opt(s)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if n := len(segs); n > 0 {
		s.seq = segs[n-1].seq + 1
	}
	if err := s.openSegmentLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

type segment struct {
	seq  int
	path string
	size int64
}

// segments lists dir's segment files in sequence order.
func segments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []segment
	for _, e := range ents {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), segPattern, &seq); err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, segment{seq: seq, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// openSegmentLocked starts the next segment file, enforcing the ring
// cap first so total disk use stays bounded even while writing.
func (s *FileSink) openSegmentLocked() error {
	if err := s.enforceCapLocked(); err != nil {
		return err
	}
	path := filepath.Join(s.dir, fmt.Sprintf(segPattern, s.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("trace: open segment: %w", err)
	}
	s.seq++
	if _, err := f.WriteString(fileMagic); err != nil {
		f.Close()
		return fmt.Errorf("trace: write segment magic: %w", err)
	}
	s.f = f
	s.written = int64(len(fileMagic))
	return nil
}

// closeSegmentLocked closes the active segment.
func (s *FileSink) closeSegmentLocked() error {
	err := s.f.Close()
	s.f = nil
	return err
}

// enforceCapLocked deletes oldest segments while the directory exceeds
// the cap (the active segment is already closed when this runs).
func (s *FileSink) enforceCapLocked() error {
	segs, err := segments(s.dir)
	if err != nil {
		return err
	}
	var total int64
	for _, sg := range segs {
		total += sg.size
	}
	for _, sg := range segs {
		if total <= s.capBytes {
			break
		}
		if err := os.Remove(sg.path); err != nil {
			return err
		}
		total -= sg.size
	}
	return nil
}

// Emit implements Sink: encode, append the record in one write, roll
// the segment when full. Tracing must never take the serving path down
// with it, so Emit reports nothing: its first error breaks the sink,
// and Close returns it.
func (s *FileSink) Emit(d *SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.f == nil {
		return
	}
	s.span = appendSpan(s.span[:0], d)
	s.rec = binary.AppendUvarint(s.rec[:0], uint64(len(s.span)))
	s.rec = append(s.rec, s.span...)
	if _, s.err = s.f.Write(s.rec); s.err != nil {
		return
	}
	s.written += int64(len(s.rec))
	if s.written >= s.segBytes {
		if s.err = s.closeSegmentLocked(); s.err == nil {
			s.err = s.openSegmentLocked()
		}
	}
}

// Close closes the active segment. It returns the sink's first error:
// a failed write or roll, or this close.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.closeSegmentLocked(); s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// appendSpan encodes d onto buf.
func appendSpan(buf []byte, d *SpanData) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.TraceID))
	buf = binary.AppendUvarint(buf, uint64(d.SpanID))
	buf = binary.AppendUvarint(buf, uint64(d.Parent))
	buf = appendString(buf, d.Name)
	buf = appendString(buf, d.Service)
	buf = binary.AppendVarint(buf, d.Start)
	buf = binary.AppendVarint(buf, d.Dur)
	buf = binary.AppendVarint(buf, d.Seed)
	buf = binary.AppendUvarint(buf, uint64(d.Frames))
	buf = binary.AppendUvarint(buf, uint64(d.SampledFrames))
	buf = binary.AppendUvarint(buf, uint64(len(d.Stages)))
	for _, v := range d.Stages {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Attrs)))
	for _, a := range d.Attrs {
		buf = appendString(buf, a.Key)
		buf = appendString(buf, a.Value)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// cursor decodes one record payload.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("trace: truncated record")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("trace: truncated record")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) str() string {
	n := int(c.uvarint())
	if c.err != nil {
		return ""
	}
	if n < 0 || c.off+n > len(c.b) {
		c.err = fmt.Errorf("trace: truncated record")
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// maxRecordAttrs bounds a record's attributes. A live span keeps at
// most maxAttrs, but Emit writes whatever a SpanData carries.
const maxRecordAttrs = 64

// CheckBounds reports whether a span with the given numbers of stages
// and attributes fits a segment record: at most MaxStages and 64. The
// decoder refuses a record beyond them, and with it the whole segment,
// so a writer of spans from elsewhere (the worker-span endpoint) must
// refuse such a span first.
func CheckBounds(stages, attrs uint64) error {
	if stages > MaxStages {
		return fmt.Errorf("trace: record claims %d stages", stages)
	}
	if attrs > maxRecordAttrs {
		return fmt.Errorf("trace: record claims %d attrs", attrs)
	}
	return nil
}

// decodeSpan decodes one record payload.
func decodeSpan(b []byte) (SpanData, error) {
	c := cursor{b: b}
	var d SpanData
	d.TraceID = ID(c.uvarint())
	d.SpanID = ID(c.uvarint())
	d.Parent = ID(c.uvarint())
	d.Name = c.str()
	d.Service = c.str()
	d.Start = c.varint()
	d.Dur = c.varint()
	d.Seed = c.varint()
	d.Frames = int32(c.uvarint())
	d.SampledFrames = int32(c.uvarint())
	if n := c.uvarint(); n > 0 && c.err == nil {
		if err := CheckBounds(n, 0); err != nil {
			return d, err
		}
		d.Stages = make([]int64, n)
		for i := range d.Stages {
			d.Stages[i] = c.varint()
		}
	}
	if n := c.uvarint(); n > 0 && c.err == nil {
		if err := CheckBounds(0, n); err != nil {
			return d, err
		}
		d.Attrs = make([]Attr, n)
		for i := range d.Attrs {
			d.Attrs[i].Key = c.str()
			d.Attrs[i].Value = c.str()
		}
	}
	return d, c.err
}

// DecodeAll decodes one segment stream. A torn tail — an incomplete
// final record from a process that died mid-write — terminates the
// decode cleanly with everything before it.
func DecodeAll(r io.Reader) ([]SpanData, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: not a trace segment (bad magic)")
	}
	var out []SpanData
	buf := make([]byte, 0, 512)
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return out, nil // clean EOF or a tear inside the length
		}
		if n > 1<<24 {
			return out, fmt.Errorf("trace: record length %d exceeds limit", n)
		}
		if uint64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return out, nil // torn tail
		}
		d, err := decodeSpan(buf)
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
}

// ReadDir decodes every segment in a sink directory, oldest first.
func ReadDir(dir string) ([]SpanData, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	var out []SpanData
	for _, sg := range segs {
		f, err := os.Open(sg.path)
		if err != nil {
			return nil, err
		}
		spans, err := DecodeAll(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sg.path, err)
		}
		out = append(out, spans...)
	}
	return out, nil
}
