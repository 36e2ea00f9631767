package segstore

import (
	"encoding/json"
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
//	        000000.idx   its header + partial aggregate (see index.go)
//	        000001.seg   ...
//	        000001.idx
//	        000002.seg   highest seq: the active (appendable) segment
//	        MANIFEST     sealed-segment header cache
//
// The highest-numbered .seg is always the active segment; everything
// below it is sealed and immutable. The compactor rewrites a shard
// into a fresh generation dir and swaps CURRENT, so readers never see
// a half-rewritten shard and the store's flock file is never renamed.
//
// Only segment *metadata* lives in memory. Records are read from the
// segment files on demand, which is what lets a million-episode store
// open without touching a million records.
const (
	currentFile  = "CURRENT"
	manifestFile = "MANIFEST"
	segSuffix    = ".seg"
	idxSuffix    = ".idx"
)

type shard struct {
	// mu guards all fields below; held across segment reads so queries
	// see a stable segment set. Lock order: Store.mu before shard.mu.
	mu sync.Mutex

	name string // campaign name (unescaped)
	dir  string // .../c/<escaped-name>

	gen    int    // current generation number
	genDir string // .../c/<escaped-name>/g%06d

	sealed []segMeta // immutable segments, ascending seq
	active segMeta   // the appendable tail segment
	// activeAgg is the running partial aggregate of the active segment,
	// folded on each append while the segment stays sorted.
	activeAgg *results.CampaignRecord
	w         *os.File // active segment writer; opened lazily

	// sealedFast and sealedMaxIdx summarize the sealed segments for the
	// fast-path check: every sealed segment sorted, ranges strictly
	// ascending in seq order. Maintained O(1) per seal.
	sealedFast   bool
	sealedMaxIdx int

	// compactQueued debounces the background compactor: set when the
	// shard is enqueued, cleared when its rewrite finishes.
	compactQueued bool
}

func genName(gen int) string            { return fmt.Sprintf("g%06d", gen) }
func segName(seq int) string            { return fmt.Sprintf("%06d%s", seq, segSuffix) }
func idxName(seq int) string            { return fmt.Sprintf("%06d%s", seq, idxSuffix) }
func (s *shard) segPath(seq int) string { return filepath.Join(s.genDir, segName(seq)) }
func (s *shard) idxPath(seq int) string { return filepath.Join(s.genDir, idxName(seq)) }

// fastPath reports whether the shard's episode indexes are provably
// distinct and ascending across segments — the condition under which
// Episodes can concatenate segments without a last-wins fold and
// AggregateEpisodes can merge partial aggregates.
func (s *shard) fastPath() bool {
	if !s.sealedFast || !s.active.sorted {
		return false
	}
	return s.active.n == 0 || len(s.sealed) == 0 || s.active.minIdx > s.sealedMaxIdx
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

// recomputeSealedFast rebuilds the O(1)-maintained summary from the
// full sealed list (used after open and compaction).
func (s *shard) recomputeSealedFast() {
	s.sealedFast = true
	s.sealedMaxIdx = 0
	first := true
	for i := range s.sealed {
		m := &s.sealed[i]
		if m.n == 0 {
			continue
		}
		if !m.sorted || (!first && m.minIdx <= s.sealedMaxIdx) {
			s.sealedFast = false
		}
		if first || m.maxIdx > s.sealedMaxIdx {
			s.sealedMaxIdx = m.maxIdx
		}
		first = false
	}
}

// scanSegment parses a segment file, rebuilding its metadata and — when
// the records are sorted — its partial aggregate. The torn-tail rule is
// the shared one (results.ScanJSONL): an unparsable final line is
// excluded from the clean length; interior corruption is a hard error.
func scanSegment(raw []byte, seq int, name string) (segMeta, *results.CampaignRecord, error) {
	m := segMeta{seq: seq, sorted: true}
	var agg *results.CampaignRecord
	good, err := results.ScanJSONL(raw, func(lineno int, line []byte) error {
		var ep results.EpisodeRecord
		if err := json.Unmarshal(line, &ep); err != nil {
			return fmt.Errorf("%w: %w", results.ErrMalformedLine, err)
		}
		if ep.Campaign != name {
			return fmt.Errorf("segstore: segment %d line %d: campaign %q in shard %q", seq, lineno, ep.Campaign, name)
		}
		foldAppend(&m, &agg, &ep)
		return nil
	})
	if err != nil {
		return segMeta{}, nil, err
	}
	m.bytes = int64(good)
	if !m.sorted {
		agg = nil
	}
	m.hasAgg = m.sorted && m.n > 0
	return m, agg, nil
}

// foldAppend advances a segment's metadata (and, while sorted, its
// partial aggregate) by one record — shared by the live append path and
// segment scans so both derive identical state.
func foldAppend(m *segMeta, agg **results.CampaignRecord, ep *results.EpisodeRecord) {
	if m.n == 0 {
		m.minIdx, m.maxIdx = ep.Index, ep.Index
	} else {
		if ep.Index <= m.maxIdx {
			m.sorted = false
			*agg = nil
		}
		if ep.Index < m.minIdx {
			m.minIdx = ep.Index
		}
		if ep.Index > m.maxIdx {
			m.maxIdx = ep.Index
		}
	}
	if m.sorted {
		if *agg == nil {
			c := results.NewCampaign(ep.Campaign, ep.Scenario, ep.Mode, ep.ExpectCrashes, 0)
			*agg = &c
		}
		(*agg).Fold(*ep)
	}
	m.n++
}

// openShard recovers one campaign's shard from disk. ro suppresses all
// repair writes (index rewrites, torn-tail truncation, stale-generation
// cleanup) so concurrent read-only loads never race the owning writer.
// It reports the bytes of raw segment data it had to parse and of index
// metadata it read, feeding OpenStats.
func openShard(dir, name string, ro bool) (*shard, int64, int64, error) {
	s := &shard{name: name, dir: dir}
	var scanned, idxBytes int64

	gen, err := readCurrent(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	s.gen = gen
	s.genDir = filepath.Join(dir, genName(gen))

	seqs, err := listSegs(s.genDir)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(seqs) == 0 {
		// A freshly created (or crash-interrupted-at-birth) generation:
		// start segment 0 empty.
		s.active = segMeta{seq: 0, sorted: true}
		s.sealedFast = true
		return s, 0, 0, nil
	}
	activeSeq := seqs[len(seqs)-1]
	sealedSeqs := seqs[:len(seqs)-1]

	// Sealed segments: MANIFEST first (one small read), falling back to
	// per-segment .idx files, falling back to a raw scan (repairing the
	// .idx when we own the store).
	manifest := map[int]segMeta{}
	if raw, err := os.ReadFile(filepath.Join(s.genDir, manifestFile)); err == nil {
		if metas, err := decodeManifest(raw); err == nil {
			idxBytes += int64(len(raw))
			for _, m := range metas {
				manifest[m.seq] = m
			}
		}
	}
	staleManifest := len(manifest) != len(sealedSeqs)
	for _, seq := range sealedSeqs {
		m, ok := manifest[seq]
		if ok {
			if fi, err := os.Stat(s.segPath(seq)); err != nil || fi.Size() != m.bytes {
				ok = false // the cache disagrees with the segment itself
			}
		}
		if !ok {
			staleManifest = true
			var err error
			m, _, err = recoverSealed(s, seq, ro, &scanned, &idxBytes)
			if err != nil {
				return nil, 0, 0, err
			}
		}
		s.sealed = append(s.sealed, m)
	}
	if staleManifest && !ro {
		if err := s.writeManifest(); err != nil {
			return nil, 0, 0, err
		}
	}
	s.recomputeSealedFast()

	// Active segment: a clean Close leaves a .idx cache beside it; adopt
	// it when it still matches the file size (a stat, not a read — the
	// whole point is never touching record bytes), otherwise scan the
	// tail.
	fi, err := os.Stat(s.segPath(activeSeq))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("segstore: stat active segment: %w", err)
	}
	adopted := false
	if idxRaw, err := os.ReadFile(s.idxPath(activeSeq)); err == nil {
		if m, err := decodeIdx(idxRaw, activeSeq); err == nil && m.bytes == fi.Size() {
			idxBytes += int64(len(idxRaw))
			s.active = m
			s.activeAgg = m.agg
			s.active.agg = nil
			adopted = true
		}
	}
	if !adopted {
		raw, err := os.ReadFile(s.segPath(activeSeq))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("segstore: read active segment: %w", err)
		}
		m, agg, err := scanSegment(raw, activeSeq, name)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("segstore: %s: %w", s.segPath(activeSeq), err)
		}
		scanned += int64(len(raw))
		if !ro && m.bytes < int64(len(raw)) {
			// Torn tail from a crash mid-append: cut it so the next
			// append starts on a clean line boundary.
			if err := os.Truncate(s.segPath(activeSeq), m.bytes); err != nil {
				return nil, 0, 0, fmt.Errorf("segstore: drop torn tail: %w", err)
			}
		}
		s.active = m
		s.activeAgg = agg
	}
	if !ro {
		// Generations other than CURRENT are leftovers from a crashed
		// compaction swap — either direction of the swap is complete, so
		// they are garbage.
		removeStaleGens(dir, gen)
	}
	return s, scanned, idxBytes, nil
}

// recoverSealed loads one sealed segment's metadata from its .idx, or
// rescans the segment (rewriting the .idx unless read-only).
func recoverSealed(s *shard, seq int, ro bool, scanned, idxBytes *int64) (segMeta, *results.CampaignRecord, error) {
	segPath := s.segPath(seq)
	fi, err := os.Stat(segPath)
	if err != nil {
		return segMeta{}, nil, fmt.Errorf("segstore: missing segment: %w", err)
	}
	if raw, err := os.ReadFile(s.idxPath(seq)); err == nil {
		if m, err := decodeIdx(raw, seq); err == nil && m.bytes == fi.Size() {
			*idxBytes += int64(len(raw))
			m.agg = nil // stays lazy; reloaded from the .idx when needed
			return m, nil, nil
		}
	}
	raw, err := os.ReadFile(segPath)
	if err != nil {
		return segMeta{}, nil, fmt.Errorf("segstore: read segment: %w", err)
	}
	m, agg, err := scanSegment(raw, seq, s.name)
	if err != nil {
		return segMeta{}, nil, fmt.Errorf("segstore: %s: %w", segPath, err)
	}
	*scanned += int64(len(raw))
	if m.bytes < int64(len(raw)) {
		// A sealed segment can carry a torn tail if the crash hit
		// between the roll's write and its seal bookkeeping.
		if !ro {
			if err := os.Truncate(segPath, m.bytes); err != nil {
				return segMeta{}, nil, fmt.Errorf("segstore: drop torn tail: %w", err)
			}
		}
	}
	if !ro {
		m.agg = agg
		if err := results.WriteFileAtomic(s.idxPath(seq), encodeIdx(&m)); err != nil {
			return segMeta{}, nil, err
		}
		m.agg = nil
	}
	return m, agg, nil
}

// sealedAgg returns a sealed segment's partial aggregate, reading it
// from the .idx file on first use. Returns nil when the segment has
// none (unsorted, or empty).
func (s *shard) sealedAgg(i int) (*results.CampaignRecord, error) {
	m := &s.sealed[i]
	if !m.hasAgg {
		return nil, nil
	}
	if m.agg == nil {
		raw, err := os.ReadFile(s.idxPath(m.seq))
		if err != nil {
			return nil, fmt.Errorf("segstore: read segment index: %w", err)
		}
		dec, err := decodeIdx(raw, m.seq)
		if err != nil {
			return nil, err
		}
		if dec.agg == nil {
			return nil, fmt.Errorf("segstore: %s: aggregate missing", s.idxPath(m.seq))
		}
		m.agg = dec.agg
	}
	return m.agg, nil
}

// writeManifest atomically replaces the shard's sealed-segment cache.
func (s *shard) writeManifest() error {
	return results.WriteFileAtomic(filepath.Join(s.genDir, manifestFile), encodeManifest(s.sealed))
}

// seal closes the active segment: sync, write its .idx (header plus
// partial aggregate when sorted), move it to the sealed list, refresh
// the MANIFEST, and start the next segment. The ordering makes every
// crash window recoverable: the segment's own bytes are durable before
// any metadata describes them, and metadata is rebuilt from segments
// whenever it is missing or stale.
func (s *shard) seal() error {
	if s.w != nil {
		if err := s.w.Sync(); err != nil {
			return fmt.Errorf("segstore: sync segment: %w", err)
		}
		if err := s.w.Close(); err != nil {
			return fmt.Errorf("segstore: close segment: %w", err)
		}
		s.w = nil
	}
	m := s.active
	m.hasAgg = m.sorted && m.n > 0
	m.agg = s.activeAgg
	if err := results.WriteFileAtomic(s.idxPath(m.seq), encodeIdx(&m)); err != nil {
		return err
	}
	m.agg = nil
	s.sealed = append(s.sealed, m)
	s.recomputeSealedFast() // sealing is rare; the rescan is segment count, not records
	if err := s.writeManifest(); err != nil {
		return err
	}
	s.active = segMeta{seq: m.seq + 1, sorted: true}
	s.activeAgg = nil
	return nil
}

// openWriter makes the active segment appendable (lazily, so read-heavy
// stores with many campaigns don't hold a descriptor per shard).
func (s *shard) openWriter() error {
	if s.w != nil {
		return nil
	}
	// The running aggregate must cover the whole segment before any new
	// record folds into it.
	if err := s.ensureActiveAgg(); err != nil {
		return err
	}
	f, err := os.OpenFile(s.segPath(s.active.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("segstore: open segment: %w", err)
	}
	s.w = f
	// The active segment's .idx is a close-time scan cache; the appends
	// about to happen make it stale (a size check guards adoption, but
	// there is no reason to leave it lying around).
	os.Remove(s.idxPath(s.active.seq))
	return nil
}

// closeWriter seals nothing; it writes the active segment's .idx as a
// scan cache for the next open and releases the descriptor. The cache
// is header-only — no partial aggregate — so open cost stays a few
// dozen bytes per shard no matter how full the active segment is; the
// aggregate is rebuilt lazily (one bounded segment scan) by
// ensureActiveAgg when next needed.
func (s *shard) closeWriter() error {
	var firstErr error
	if s.w != nil {
		if err := s.w.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.w = nil
	}
	m := s.active
	m.hasAgg = false
	m.agg = nil
	if err := results.WriteFileAtomic(s.idxPath(m.seq), encodeIdx(&m)); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ensureActiveAgg rebuilds the active segment's running aggregate after
// a reopen adopted a header-only close cache. The scan is bounded by
// the roll threshold, and it must run before any append folds into the
// aggregate — a fold starting mid-segment would silently drop the
// earlier records from the campaign's fast-path summary.
func (s *shard) ensureActiveAgg() error {
	if s.activeAgg != nil || !s.active.sorted || s.active.n == 0 {
		return nil
	}
	raw, err := os.ReadFile(s.segPath(s.active.seq))
	if err != nil {
		return fmt.Errorf("segstore: read active segment: %w", err)
	}
	m, agg, err := scanSegment(raw, s.active.seq, s.name)
	if err != nil {
		return fmt.Errorf("segstore: %s: %w", s.segPath(s.active.seq), err)
	}
	if m.n != s.active.n || m.bytes != s.active.bytes || !m.sorted {
		return fmt.Errorf("segstore: %s: segment diverged from its index (%d/%d records, %d/%d bytes)",
			s.segPath(s.active.seq), m.n, s.active.n, m.bytes, s.active.bytes)
	}
	s.activeAgg = agg
	return nil
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

// listSegs returns the generation's segment sequence numbers ascending.
func listSegs(genDir string) ([]int, error) {
	entries, err := os.ReadDir(genDir)
	if err != nil {
		return nil, fmt.Errorf("segstore: read generation dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var seq int
		base := strings.TrimSuffix(name, segSuffix)
		if n, err := fmt.Sscanf(base, "%06d", &seq); n != 1 || err != nil || segName(seq) != name {
			return nil, fmt.Errorf("segstore: unexpected file %s in %s", name, genDir)
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}
