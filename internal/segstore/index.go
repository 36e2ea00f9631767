package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// A segment's <seq>.idx file is its header alone, varint-packed behind
// a 4-byte magic and ending in a little-endian CRC32 (IEEE) of all
// preceding bytes, so a torn or bit-rotted index is rejected and
// rebuilt from its segment instead of silently misdescribing it:
//
//	"RSX1" | uvarint version | uvarint flags | uvarint n |
//	varint minIdx | varint maxIdx | uvarint bytes | CRC32
const (
	idxMagic     = "RSX1"
	codecVersion = 1
	// flagSorted is the only flag a header may carry. Older writers also
	// set 1<<1 on sorted sealed segments and appended a partial campaign
	// aggregate; such an index decodes as stale, so open rescans its
	// segment and rewrites it.
	flagSorted = 1
)

// segMeta describes one segment: enough to answer count/range/size
// queries and to prove episode-index distinctness (sorted,
// non-overlapping segments need no last-wins fold).
type segMeta struct {
	seq    int
	n      int   // record lines
	minIdx int   // lowest episode index (valid when n > 0)
	maxIdx int   // highest episode index
	bytes  int64 // clean byte length of the .seg file
	// sorted: episode indexes strictly increase through the segment,
	// which implies they are distinct.
	sorted bool
}

// encodeIdx renders one segment's .idx file contents.
func encodeIdx(m *segMeta) []byte {
	var flags uint64
	if m.sorted {
		flags = flagSorted
	}
	b := make([]byte, 0, 64)
	b = append(b, idxMagic...)
	b = binary.AppendUvarint(b, codecVersion)
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(m.n))
	b = binary.AppendVarint(b, int64(m.minIdx))
	b = binary.AppendVarint(b, int64(m.maxIdx))
	b = binary.AppendUvarint(b, uint64(m.bytes))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeIdx parses a .idx file; seq comes from the file name. A header
// is accepted only if a segment could match it: counts that stay
// non-negative as ints, no more records than bytes (every record is a
// non-empty line), and minIdx <= maxIdx when it holds records. Callers
// still check bytes against the segment file before trusting n.
func decodeIdx(raw []byte, seq int) (segMeta, error) {
	if len(raw) < len(idxMagic)+4 {
		return segMeta{}, errors.New("segstore: segment index: too short")
	}
	payload, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return segMeta{}, errors.New("segstore: segment index: checksum mismatch")
	}
	if string(payload[:len(idxMagic)]) != idxMagic {
		return segMeta{}, errors.New("segstore: segment index: bad magic")
	}
	r := reader{b: payload, off: len(idxMagic)}
	version, flags := r.uvarint(), r.uvarint()
	n, minIdx, maxIdx, size := r.uvarint(), r.varint(), r.varint(), r.uvarint()
	m := segMeta{
		seq:    seq,
		n:      int(n),
		minIdx: int(minIdx),
		maxIdx: int(maxIdx),
		bytes:  int64(size),
		sorted: flags&flagSorted != 0,
	}
	var err error
	switch {
	case r.err != nil:
		err = r.err
	case version != codecVersion:
		err = fmt.Errorf("version %d is newer than supported %d", version, codecVersion)
	case flags&^flagSorted != 0:
		err = fmt.Errorf("unsupported flags %#x", flags)
	case r.off != len(payload):
		err = fmt.Errorf("%d trailing bytes", len(payload)-r.off)
	case m.n < 0 || uint64(m.n) != n || m.bytes < 0:
		err = fmt.Errorf("count %d or length %d out of range", n, size)
	case int64(m.minIdx) != minIdx || int64(m.maxIdx) != maxIdx:
		err = fmt.Errorf("index range [%d, %d] out of range", minIdx, maxIdx)
	case int64(m.n) > m.bytes:
		err = fmt.Errorf("%d records in %d bytes", m.n, m.bytes)
	case m.n > 0 && m.minIdx > m.maxIdx:
		err = fmt.Errorf("index range [%d, %d] is inverted", m.minIdx, m.maxIdx)
	}
	if err != nil {
		return segMeta{}, fmt.Errorf("segstore: segment index: %w", err)
	}
	return m, nil
}

// reader is a bounds-checked varint cursor over an index payload. The
// first decode error sticks.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}
