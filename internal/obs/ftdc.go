package obs

// FTDC-style capture: a background goroutine gathers every registered
// series on a fixed interval and appends delta-encoded snapshots to a
// compact binary file, so a crashed or misbehaving process leaves a
// full metrics timeline behind for post-mortem analysis
// (cmd/robotack-ftdc decodes it back to JSONL).
//
// Format: the file opens with a magic string, then a sequence of
// chunks. A schema chunk ('S') lists the series names in order and
// resets the delta state; it is written at start and again whenever
// the registry's series set changes (new registrations append, so this
// is rare after startup). A data chunk ('D') carries a zigzag-varint
// delta of the unix-nano timestamp followed by one zigzag varint per
// series: the difference of the float64 bit patterns against the
// previous chunk. Counters and most gauges move slowly, so bit-pattern
// deltas are small integers and varints keep chunks to a few bytes per
// series.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"
)

const ftdcMagic = "robotack-ftdc\x01"

// Schema bounds: a capture names at most maxFTDCSeries series, each at
// most maxFTDCName bytes long. The default registry holds a few hundred
// series with names under 100 bytes; the bounds keep a corrupt or
// hostile schema chunk from sizing allocations.
const (
	maxFTDCSeries = 1 << 16
	maxFTDCName   = 1 << 10
)

// FTDCInterval is the snapshot interval every binary's -ftdc capture
// uses.
const FTDCInterval = time.Second

// Snapshot is one decoded capture point.
type Snapshot struct {
	TS      int64 // unix nanoseconds
	Metrics map[string]float64
}

// Encoder writes delta-encoded snapshots to w. Not safe for
// concurrent use; Capture serializes access.
type Encoder struct {
	w      *bufio.Writer
	names  []string
	prev   []uint64
	prevTS int64
	buf    []byte
}

// NewEncoder writes the magic header through to w, so a capture that
// dies before its first snapshot still decodes, and returns an encoder.
func NewEncoder(w io.Writer) (*Encoder, error) {
	if _, err := io.WriteString(w, ftdcMagic); err != nil {
		return nil, err
	}
	return &Encoder{w: bufio.NewWriter(w), buf: make([]byte, binary.MaxVarintLen64)}, nil
}

func (e *Encoder) putUvarint(v uint64) {
	n := binary.PutUvarint(e.buf, v)
	e.w.Write(e.buf[:n])
}

func (e *Encoder) putVarint(v int64) {
	n := binary.PutVarint(e.buf, v)
	e.w.Write(e.buf[:n])
}

// Encode appends one snapshot. If the series set differs from the
// previous call a schema chunk is emitted first.
func (e *Encoder) Encode(ts int64, samples []Sample) error {
	if !sameSchema(e.names, samples) {
		e.names = e.names[:0]
		for _, s := range samples {
			e.names = append(e.names, s.Name)
		}
		e.w.WriteByte('S')
		e.putUvarint(uint64(len(e.names)))
		for _, n := range e.names {
			e.putUvarint(uint64(len(n)))
			e.w.WriteString(n)
		}
		e.prev = make([]uint64, len(e.names))
		e.prevTS = 0
	}
	e.w.WriteByte('D')
	e.putVarint(ts - e.prevTS)
	e.prevTS = ts
	for i, s := range samples {
		bits := math.Float64bits(s.Value)
		e.putVarint(int64(bits - e.prev[i]))
		e.prev[i] = bits
	}
	return e.flushErr()
}

func (e *Encoder) flushErr() error { return e.w.Flush() }

func sameSchema(names []string, samples []Sample) bool {
	if names == nil || len(names) != len(samples) {
		return false
	}
	for i, s := range samples {
		if names[i] != s.Name {
			return false
		}
	}
	return true
}

// Decode reads a capture stream back into snapshots. A torn tail — a
// final chunk cut short by a process that died mid-write — ends the
// decode cleanly with every whole snapshot before it, as the trace
// sink's DecodeAll does. Anything else malformed is an error.
func Decode(r io.Reader) ([]Snapshot, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ftdcMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ftdc: reading magic: %w", err)
	}
	if string(magic) != ftdcMagic {
		return nil, errors.New("ftdc: bad magic (not a robotack-ftdc capture)")
	}
	var (
		out    []Snapshot
		names  []string
		prev   []uint64
		prevTS int64
	)
	for {
		kind, err := br.ReadByte()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		switch kind {
		case 'S':
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return torn(out, fmt.Errorf("ftdc: schema count: %w", err))
			}
			if n > maxFTDCSeries {
				return nil, fmt.Errorf("ftdc: schema of %d series, more than %d", n, maxFTDCSeries)
			}
			names = make([]string, n)
			for i := range names {
				l, err := binary.ReadUvarint(br)
				if err != nil {
					return torn(out, fmt.Errorf("ftdc: name length: %w", err))
				}
				if l > maxFTDCName {
					return nil, fmt.Errorf("ftdc: series name of %d bytes, more than %d", l, maxFTDCName)
				}
				b := make([]byte, l)
				if _, err := io.ReadFull(br, b); err != nil {
					return torn(out, fmt.Errorf("ftdc: name bytes: %w", err))
				}
				names[i] = string(b)
			}
			prev = make([]uint64, n)
			prevTS = 0
		case 'D':
			if names == nil {
				return nil, errors.New("ftdc: data chunk before schema")
			}
			dts, err := binary.ReadVarint(br)
			if err != nil {
				return torn(out, fmt.Errorf("ftdc: timestamp delta: %w", err))
			}
			prevTS += dts
			snap := Snapshot{TS: prevTS, Metrics: make(map[string]float64, len(names))}
			for i, name := range names {
				d, err := binary.ReadVarint(br)
				if err != nil {
					return torn(out, fmt.Errorf("ftdc: series delta: %w", err))
				}
				prev[i] += uint64(d)
				snap.Metrics[name] = math.Float64frombits(prev[i])
			}
			out = append(out, snap)
		default:
			return nil, fmt.Errorf("ftdc: unknown chunk type %q", kind)
		}
	}
}

// torn ends a decode at err. A stream that ends inside a chunk is a
// torn tail, which keeps out, the snapshots before it.
func torn(out []Snapshot, err error) ([]Snapshot, error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return out, nil
	}
	return nil, err
}

// Capture is a running periodic snapshotter; Stop for a final sample
// and a clean close.
type Capture struct {
	reg      *Registry
	interval time.Duration
	f        *os.File
	enc      *Encoder

	mu   sync.Mutex
	done chan struct{}
	wg   sync.WaitGroup
	err  error
}

// StartCapture appends snapshots of reg to path every interval until
// Stop. The file is created (or truncated) immediately so a capture
// that dies early still has a valid header.
func StartCapture(reg *Registry, path string, interval time.Duration) (*Capture, error) {
	if interval <= 0 {
		interval = time.Second
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	enc, err := NewEncoder(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	c := &Capture{reg: reg, interval: interval, f: f, enc: enc, done: make(chan struct{})}
	c.wg.Add(1)
	go c.loop()
	return c, nil
}

func (c *Capture) loop() {
	defer c.wg.Done()
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.sample()
		}
	}
}

func (c *Capture) sample() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(time.Now().UnixNano(), c.reg.Gather()); err != nil && c.err == nil {
		c.err = err
	}
}

// Stop takes a final sample, flushes and closes the file, returning
// the first error seen over the capture's lifetime.
func (c *Capture) Stop() error {
	close(c.done)
	c.wg.Wait()
	c.sample()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.f.Close(); err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}
