package segstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/robotack/robotack/internal/results"
)

// A shard is one campaign's segment directory. Layout:
//
//	c/<escaped-name>/
//	    CURRENT          → name of the live generation dir ("g000000")
//	    g000000/
//	        000000.seg   sealed segment: EpisodeRecord JSON lines
//	        000000.idx   its header (see index.go)
//	        000001.seg   ...
//	        000001.idx
//	        000002.seg   highest seq: the active (appendable) segment
//
// The highest-numbered .seg is always the active segment; everything
// below it is sealed and immutable. Compact rewrites a shard into a
// fresh generation dir and swaps CURRENT, so readers never see a
// half-rewritten shard and the store's flock file is never renamed.
//
// Only segment *metadata* lives in memory. Records are read from the
// segment files on demand, which is what lets a million-episode store
// open without touching a million records.
const (
	currentFile = "CURRENT"
	segSuffix   = ".seg"
	idxSuffix   = ".idx"
	// oldManifestFile is the sealed-header cache older writers kept in
	// each generation dir. A writer open deletes it before rewriting any
	// stale .idx, so an older binary opening the store later cannot
	// trust it over the rewritten indexes.
	oldManifestFile = "MANIFEST"
)

type shard struct {
	// mu guards all fields below; held across segment reads so queries
	// see a stable segment set. Lock order: Store.mu before shard.mu.
	mu sync.Mutex

	name string // campaign name (unescaped)
	dir  string // .../c/<escaped-name>

	gen    int    // current generation number
	genDir string // .../c/<escaped-name>/g%06d

	sealed []segMeta    // immutable segments, ascending seq
	active segMeta      // the appendable tail segment
	w      *results.Log // active segment writer; opened lazily
}

// newShard returns an empty shard of campaign name at generation gen
// of dir; its first append creates segment 0.
func newShard(dir, name string, gen int) *shard {
	return &shard{name: name, dir: dir, gen: gen, genDir: filepath.Join(dir, genName(gen)), active: segMeta{sorted: true}}
}

func genName(gen int) string            { return fmt.Sprintf("g%06d", gen) }
func segName(seq int) string            { return fmt.Sprintf("%06d%s", seq, segSuffix) }
func idxName(seq int) string            { return fmt.Sprintf("%06d%s", seq, idxSuffix) }
func (s *shard) segPath(seq int) string { return filepath.Join(s.genDir, segName(seq)) }
func (s *shard) idxPath(seq int) string { return filepath.Join(s.genDir, idxName(seq)) }

// fastPath reports whether the shard's episode indexes are provably
// distinct and ascending across segments — the condition under which
// Episodes can concatenate segments without a last-wins fold: every
// segment sorted, and each segment that holds records starting above
// the highest index before it. It reads segment headers, not records.
func (s *shard) fastPath() bool {
	if !s.active.sorted {
		return false
	}
	maxIdx, seen := 0, false
	for i := range s.sealed {
		m := &s.sealed[i]
		if m.n == 0 {
			continue
		}
		if !m.sorted || (seen && m.minIdx <= maxIdx) {
			return false
		}
		maxIdx, seen = m.maxIdx, true
	}
	return s.active.n == 0 || len(s.sealed) == 0 || s.active.minIdx > maxIdx
}

// episodes reports the shard's record count: exact when the fast path
// holds, an upper bound (duplicates counted twice) otherwise.
func (s *shard) episodes() (n int, exact bool) {
	n = s.active.n
	for i := range s.sealed {
		n += s.sealed[i].n
	}
	return n, s.fastPath()
}

func (s *shard) bytes() int64 {
	b := s.active.bytes
	for i := range s.sealed {
		b += s.sealed[i].bytes
	}
	return b
}

// scanSegment replays segment seq line by line, rebuilding its
// metadata under the shared torn-tail rule (results.ScanJSONL): an
// unparsable final line is excluded from the clean length; interior
// corruption is a hard error. A writer (ro false) opens the segment
// through results.Log, which repairs its tail; a read-only replay
// repairs nothing.
func (s *shard) scanSegment(seq int, ro bool) (segMeta, error) {
	m := segMeta{seq: seq, sorted: true}
	path := s.segPath(seq)
	replay := func(lineno int, line []byte) error {
		var ep results.EpisodeRecord
		if err := json.Unmarshal(line, &ep); err != nil {
			return fmt.Errorf("%w: %w", results.ErrMalformedLine, err)
		}
		if ep.Campaign != s.name {
			return fmt.Errorf("segstore: segment %d line %d: campaign %q in shard %q", seq, lineno, ep.Campaign, s.name)
		}
		m.add(ep.Index)
		return nil
	}
	var err error
	if ro {
		m.bytes, err = results.ReplayLog(path, replay)
	} else {
		var l *results.Log
		if l, err = results.OpenLog(path, replay); err == nil {
			m.bytes = l.Size()
			err = l.Close()
		}
	}
	if err != nil {
		return segMeta{}, fmt.Errorf("segstore: %s: %w", path, err)
	}
	return m, nil
}

// loadSegment reads segment seq's metadata from its .idx when the index
// matches the segment's size (a stat, not a read: an open never
// touches record bytes it can avoid), and otherwise scans the segment.
// It returns the index bytes it read, zero when it scanned.
func (s *shard) loadSegment(seq int, ro bool) (segMeta, int64, error) {
	fi, err := os.Stat(s.segPath(seq))
	if err != nil {
		return segMeta{}, 0, fmt.Errorf("segstore: missing segment: %w", err)
	}
	if raw, err := os.ReadFile(s.idxPath(seq)); err == nil {
		if m, err := decodeIdx(raw, seq); err == nil && m.bytes == fi.Size() {
			return m, int64(len(raw)), nil
		}
	}
	m, err := s.scanSegment(seq, ro)
	return m, 0, err
}

// add advances a segment's metadata by one record with episode index
// idx — shared by shard.append and segment scans so both derive
// identical state.
func (m *segMeta) add(idx int) {
	if m.n == 0 {
		m.minIdx, m.maxIdx = idx, idx
	} else {
		if idx <= m.maxIdx {
			m.sorted = false
		}
		if idx < m.minIdx {
			m.minIdx = idx
		}
		if idx > m.maxIdx {
			m.maxIdx = idx
		}
	}
	m.n++
}

// openShard recovers one campaign's shard from disk. ro suppresses all
// repair writes (index rewrites, torn-tail truncation, stale-generation
// and old MANIFEST cleanup) so concurrent read-only loads never race
// the owning writer.
// It reports the bytes of raw segment data it had to parse and of index
// metadata it read, feeding OpenStats.
func openShard(dir, name string, ro bool) (*shard, int64, int64, error) {
	var scanned, idxBytes int64
	gen, err := readCurrent(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	s := newShard(dir, name, gen)

	seqs, orphans, err := listSegs(s.genDir)
	if err != nil {
		return nil, 0, 0, err
	}
	if !ro {
		// An .idx without its .seg describes nothing (older writers
		// left one when they closed right after a roll).
		for _, name := range orphans {
			if err := os.Remove(filepath.Join(s.genDir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, 0, 0, fmt.Errorf("segstore: remove orphan index: %w", err)
			}
		}
	}
	if len(seqs) == 0 {
		// A freshly created (or crash-interrupted-at-birth) generation:
		// start segment 0 empty.
		return s, 0, 0, nil
	}
	activeSeq := seqs[len(seqs)-1]

	if !ro {
		if err := os.Remove(filepath.Join(s.genDir, oldManifestFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, 0, 0, fmt.Errorf("segstore: remove old manifest: %w", err)
		}
	}
	// Each segment's .idx, falling back to a scan, which repairs the
	// tail when we own the store: a sealed segment can carry a torn
	// tail too, if a crash hit between the roll's write and its seal.
	// A scanned sealed segment gets its .idx rewritten; the active
	// segment's .idx is only a cache that Close writes.
	for _, seq := range seqs {
		m, n, err := s.loadSegment(seq, ro)
		if err != nil {
			return nil, 0, 0, err
		}
		idxBytes += n
		if n == 0 {
			scanned += m.bytes
		}
		if seq == activeSeq {
			s.active = m
			break
		}
		if n == 0 && !ro {
			if err := s.writeIdx(&m); err != nil {
				return nil, 0, 0, err
			}
		}
		s.sealed = append(s.sealed, m)
	}
	if !ro {
		// Generations other than CURRENT are leftovers from a crashed
		// compaction swap — either direction of the swap is complete, so
		// they are garbage.
		removeStaleGens(dir, gen)
	}
	return s, scanned, idxBytes, nil
}

// append is the one way a record reaches a segment: it writes raw, one
// encoded record with episode index idx, to the active segment, opening
// its writer if needed, advances the segment's metadata and seals the
// segment once it holds segBytes. It reports whether the segment
// rolled. Store.Append and Compact's staged generation both write
// through it.
func (s *shard) append(raw []byte, idx int, segBytes int64) (rolled bool, err error) {
	if err := s.openWriter(); err != nil {
		return false, err
	}
	if err := s.w.Append(raw); err != nil {
		return false, err
	}
	s.active.add(idx)
	s.active.bytes += int64(len(raw))
	if s.active.bytes < segBytes {
		return false, nil
	}
	return true, s.seal()
}

// seal closes the active segment and writes its .idx (closeWriter),
// moves it to the sealed list, and starts the next segment. The
// ordering makes every crash window recoverable: the segment's own
// bytes are durable before any metadata describes them, and metadata
// is rebuilt from segments whenever it is missing or stale. The next
// segment's file is created here, not on its first append, so a Close
// before that append leaves it as the highest .seg, the one a reopen
// appends to.
func (s *shard) seal() error {
	if err := s.closeWriter(); err != nil {
		return err
	}
	s.sealed = append(s.sealed, s.active)
	s.active = segMeta{seq: s.active.seq + 1, sorted: true}
	return s.openWriter()
}

// openWriter makes the active segment appendable (lazily, so read-heavy
// stores with many campaigns don't hold a descriptor per shard).
func (s *shard) openWriter() error {
	if s.w != nil {
		return nil
	}
	w, err := results.OpenLogAt(s.segPath(s.active.seq), s.active.bytes)
	if err != nil {
		return err
	}
	s.w = w
	// The active segment's .idx is a close-time scan cache; the appends
	// about to happen make it stale (a size check guards adoption, but
	// there is no reason to leave it lying around).
	os.Remove(s.idxPath(s.active.seq))
	return nil
}

// closeWriter syncs and closes the active segment's writer and writes
// the segment's .idx: the sealed index when seal calls it, and a scan
// cache for the next open when Close does, so open cost stays a few
// dozen bytes per shard no matter how full the active segment is. A
// shard whose first append never happened has no active segment file,
// and gets no .idx either.
func (s *shard) closeWriter() error {
	if s.w == nil {
		if _, err := os.Stat(s.segPath(s.active.seq)); err != nil {
			return nil
		}
	}
	if err := s.dropWriter(); err != nil {
		return err
	}
	return s.writeIdx(&s.active)
}

// dropWriter syncs and closes the active segment's writer, if one is
// open, and writes no index.
func (s *shard) dropWriter() error {
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	if err != nil {
		return fmt.Errorf("segstore: close segment: %w", err)
	}
	return nil
}

// writeIdx is the one writer of .idx files: through closeWriter for a
// segment the roll seals and for Close's scan cache, and directly for a
// sealed segment that open had to rescan.
func (s *shard) writeIdx(m *segMeta) error {
	return results.WriteFileAtomic(s.idxPath(m.seq), encodeIdx(m))
}

// writeCurrent makes the shard's generation the live one: the commit
// point of a new shard and of Compact's generation swap.
func (s *shard) writeCurrent() error {
	return results.WriteFileAtomic(filepath.Join(s.dir, currentFile), []byte(genName(s.gen)+"\n"))
}

// readCurrent resolves the live generation, tolerating a missing or
// torn CURRENT by picking the highest generation dir present (the swap
// writes CURRENT last, so the highest complete dir is the newest).
func readCurrent(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err == nil {
		var gen int
		nameStr := strings.TrimSpace(string(raw))
		if n, err := fmt.Sscanf(nameStr, "g%06d", &gen); n == 1 && err == nil && genName(gen) == nameStr {
			if _, err := os.Stat(filepath.Join(dir, nameStr)); err == nil {
				return gen, nil
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("segstore: read shard dir: %w", err)
	}
	best, found := 0, false
	for _, e := range entries {
		var gen int
		if !e.IsDir() {
			continue
		}
		if n, err := fmt.Sscanf(e.Name(), "g%06d", &gen); n == 1 && err == nil && genName(gen) == e.Name() {
			if !found || gen > best {
				best, found = gen, true
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("segstore: shard %s has no generation dir", dir)
	}
	return best, nil
}

// removeStaleGens deletes generation dirs other than the live one.
func removeStaleGens(dir string, live int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != genName(live) && strings.HasPrefix(e.Name(), "g") {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// listSegs returns the generation's segment sequence numbers
// ascending, and the names of its .idx files that have no .seg.
func listSegs(genDir string) (seqs []int, orphans []string, err error) {
	entries, err := os.ReadDir(genDir)
	if err != nil {
		return nil, nil, fmt.Errorf("segstore: read generation dir: %w", err)
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		name := e.Name()
		names[name] = true
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var seq int
		base := strings.TrimSuffix(name, segSuffix)
		if n, err := fmt.Sscanf(base, "%06d", &seq); n != 1 || err != nil || segName(seq) != name {
			return nil, nil, fmt.Errorf("segstore: unexpected file %s in %s", name, genDir)
		}
		seqs = append(seqs, seq)
	}
	for name := range names {
		if base, ok := strings.CutSuffix(name, idxSuffix); ok && !names[base+segSuffix] {
			orphans = append(orphans, name)
		}
	}
	sort.Ints(seqs)
	return seqs, orphans, nil
}
