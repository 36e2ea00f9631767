// Package segstore is the segmented, indexed results backend for
// million-episode sweeps. The JSONL FileStore re-parses its entire log
// on every open and holds every record in memory; a segstore directory
// shards records by campaign, rolls each shard's append-only segment
// file at a size threshold, and keeps a fixed binary header (count,
// episode-index range, byte length, sorted flag) per segment. Opening
// reads campaign aggregates and those headers — not records — so open
// time and campaign queries stay flat as the store grows. Out-of-order
// re-appends take a shard off its sorted fast path; it stays correct
// (queries fold it last-wins) until Compact rewrites it in index order.
//
// It is a drop-in results.DurableStore with FileStore's crash-safety
// contract: appends are visible after a kill -9, the campaigns log and
// the active segments append through results.Log (which repairs the
// tail a crash or a failed append leaves), and resuming a campaign
// produces aggregates bit-identical to an uninterrupted run.
package segstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/robotack/robotack/internal/results"
)

const (
	// markerFile identifies a directory as a segstore (and carries the
	// layout version for future migrations).
	markerFile = "segstore.json"
	// lockFileName is the store's exclusivity lock (results.LockDir):
	// two writers on one store directory would interleave segment
	// appends and race Compact's generation swap. It is its own
	// file, never renamed, so generation swaps and log compaction happen
	// underneath it (the runq queue.lock discipline).
	lockFileName = "store.lock"
	// campaignsFile is the aggregates log at the store root: FileStore
	// lines (results.StoreLine), last-wins, holding only campaign
	// records (episodes live in the shards).
	campaignsFile = "campaigns.jsonl"
	// shardsDir holds one directory per campaign.
	shardsDir = "c"

	// DefaultSegmentBytes is the roll threshold for active segments.
	DefaultSegmentBytes = 4 << 20

	// logCompactMin and logCompactRatio gate campaigns.jsonl rewrites:
	// compact when the log tops the minimum and is mostly dead upserts.
	logCompactMin   = 1 << 16
	logCompactRatio = 3
)

type marker struct {
	V int `json:"v"`
}

// OpenStats reports what Open had to read: the proof that the store is
// index-driven. A clean reopen scans (nearly) zero raw bytes no matter
// how many records it holds.
type OpenStats struct {
	// ScannedBytes is raw segment data parsed line by line (un-indexed
	// active tails, segments with missing or stale indexes).
	ScannedBytes int64
	// IndexBytes is metadata read instead: segment indexes and the
	// campaigns log.
	IndexBytes int64
	// Segments is the live segment-file count across shards.
	Segments int
}

// Option configures Open and Load.
type Option func(*Store)

// WithSegmentBytes overrides the segment roll threshold. Test seam: the
// multi-segment segstore tests and benchmarks roll small segments with
// it.
func WithSegmentBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.segBytes = n
		}
	}
}

// Store is the segmented results backend. It implements
// results.DurableStore plus the optional Aggregator extension.
type Store struct {
	dir      string
	ro       bool
	segBytes int64
	lockF    *os.File

	// mu guards the shard and campaign maps; each shard carries its own
	// mutex for segment state. Lock order: logMu → mu → shard.mu.
	mu        sync.RWMutex
	shards    map[string]*shard
	campaigns map[string]results.CampaignRecord

	// logMu serializes campaigns.jsonl appends and compaction.
	// logBytes, the log's clean length, is written under logMu and mu
	// both, so Stats reads it under mu alone.
	logMu     sync.Mutex
	log       *results.Log
	logBytes  int64
	liveBytes map[string]int64 // per-campaign live line length

	closed    atomic.Bool
	openStats OpenStats
}

// Open opens (creating if needed) a segstore directory for reading and
// appending, taking an exclusive lock on it. results.Log repairs the
// tails of the campaigns log and of any segment it has to scan, exactly
// as for FileStore and the runq journal.
func Open(dir string, opts ...Option) (*Store, error) { return open(dir, false, opts...) }

// Load opens a segstore directory read-only, without locking it: the
// diff/compare path, usable while another process owns the store. Torn
// tails are tolerated and ignored, never repaired.
func Load(dir string, opts ...Option) (*Store, error) { return open(dir, true, opts...) }

func open(dir string, ro bool, opts ...Option) (*Store, error) {
	s := &Store{
		dir:       dir,
		ro:        ro,
		segBytes:  DefaultSegmentBytes,
		shards:    make(map[string]*shard),
		campaigns: make(map[string]results.CampaignRecord),
		liveBytes: make(map[string]int64),
	}
	for _, o := range opts {
		o(s)
	}
	if !ro {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("segstore: create store dir: %w", err)
		}
	}
	if err := s.checkMarker(); err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		if s.log != nil {
			s.log.Close()
		}
		if s.lockF != nil {
			s.lockF.Close()
		}
		return nil, err
	}
	if !ro {
		lf, err := results.LockDir(dir, lockFileName)
		if err != nil {
			return fail(fmt.Errorf("segstore: %w", err))
		}
		s.lockF = lf
	}
	if err := s.openLog(); err != nil {
		return fail(err)
	}
	if err := s.openShards(); err != nil {
		return fail(err)
	}
	// No other goroutine has s yet, so its shards need no locks.
	s.openStats.Segments = s.segmentCountLocked()
	gaugeAdd(gSegments, float64(s.openStats.Segments))
	gaugeAdd(gBytes, float64(s.recordBytesLocked()))
	return s, nil
}

// checkMarker verifies (or, for a new writer dir, creates) the
// segstore.json layout marker. A non-empty directory without the
// marker is refused rather than adopted: pointing a store path at a
// random directory must not scribble a store into it.
func (s *Store) checkMarker() error {
	path := filepath.Join(s.dir, markerFile)
	raw, err := os.ReadFile(path)
	if err == nil {
		var m marker
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("segstore: %s: %w", path, err)
		}
		if m.V > 1 {
			return fmt.Errorf("segstore: %s: layout v%d is newer than supported v1", path, m.V)
		}
		return nil
	}
	if s.ro {
		return fmt.Errorf("segstore: %s is not a segstore directory (no %s)", s.dir, markerFile)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("segstore: read store dir: %w", err)
	}
	for _, e := range entries {
		if e.Name() != lockFileName {
			return fmt.Errorf("segstore: refusing to initialize non-empty directory %s", s.dir)
		}
	}
	return results.WriteFileAtomic(path, []byte("{\"v\":1}\n"))
}

// openLog replays campaigns.jsonl into the aggregate map.
func (s *Store) openLog() error {
	path := filepath.Join(s.dir, campaignsFile)
	replay := func(lineno int, line []byte) error {
		_, c, err := results.ParseStoreLine(line)
		switch {
		case err != nil:
		case c == nil:
			err = errors.New("episode record in the campaigns log")
		case c.V > results.Version:
			err = fmt.Errorf("campaign record v%d is newer than supported v%d", c.V, results.Version)
		}
		if err != nil {
			return fmt.Errorf("segstore: %s:%d: %w", path, lineno, err)
		}
		s.campaigns[c.Name] = *c
		s.liveBytes[c.Name] = int64(len(line)) + 1
		return nil
	}
	if s.ro {
		n, err := results.ReplayLog(path, replay)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		s.logBytes = n
	} else {
		l, err := results.OpenLog(path, replay)
		if err != nil {
			return err
		}
		s.log = l
		s.logBytes = l.Size()
	}
	s.openStats.IndexBytes += s.logBytes
	return nil
}

// openShards recovers every campaign shard under c/.
func (s *Store) openShards() error {
	root := filepath.Join(s.dir, shardsDir)
	entries, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("segstore: read shards dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := unescapeName(e.Name())
		if err != nil {
			return err
		}
		sh, scanned, idxBytes, err := openShard(filepath.Join(root, e.Name()), name, s.ro)
		if err != nil {
			return err
		}
		s.shards[name] = sh
		s.openStats.ScannedBytes += scanned
		s.openStats.IndexBytes += idxBytes
	}
	countN(mOpenScanned, s.openStats.ScannedBytes)
	return nil
}

// OpenStats reports what this store's open had to read. Test seam:
// TestOpenReadsIndexesNotRecords checks what an open read through it.
func (s *Store) OpenStats() OpenStats { return s.openStats }

var errReadOnly = errors.New("segstore: store is read-only")
var errClosed = errors.New("segstore: store is closed")

// writable is the check Append, PutCampaign and Compact share: it
// refuses a read-only or closed store.
func (s *Store) writable() error {
	if s.ro {
		return errReadOnly
	}
	if s.closed.Load() {
		return errClosed
	}
	return nil
}

// getShard returns the campaign's shard, creating its directory tree
// on first append.
func (s *Store) getShard(name string, create bool) (*shard, error) {
	s.mu.RLock()
	sh := s.shards[name]
	s.mu.RUnlock()
	if sh != nil || !create {
		return sh, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh = s.shards[name]; sh != nil {
		return sh, nil
	}
	sh = newShard(filepath.Join(s.dir, shardsDir, escapeName(name)), name, 0)
	if err := os.MkdirAll(sh.genDir, 0o755); err != nil {
		return nil, fmt.Errorf("segstore: create shard: %w", err)
	}
	if err := sh.writeCurrent(); err != nil {
		return nil, err
	}
	s.shards[name] = sh
	gaugeAdd(gSegments, 1)
	return sh, nil
}

// Append implements results.Sink. The record is on disk (modulo OS
// buffering, as with FileStore) before it is visible to queries.
func (s *Store) Append(ep results.EpisodeRecord) error {
	if err := s.writable(); err != nil {
		return err
	}
	if ep.V > results.Version {
		return fmt.Errorf("segstore: episode record v%d is newer than supported v%d", ep.V, results.Version)
	}
	raw, err := encodeEpisode(ep)
	if err != nil {
		return err
	}
	sh, err := s.getShard(ep.Campaign, true)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rolled, err := sh.append(raw, ep.Index, s.segBytes)
	if err != nil {
		return err
	}
	mAppends.Add(1)
	gaugeAdd(gBytes, float64(len(raw)))
	if rolled {
		mRolls.Add(1)
		gaugeAdd(gSegments, 1)
	}
	return nil
}

// encodeEpisode renders ep as one segment line.
func encodeEpisode(ep results.EpisodeRecord) ([]byte, error) {
	raw, err := json.Marshal(ep)
	if err != nil {
		return nil, fmt.Errorf("segstore: encode episode: %w", err)
	}
	return append(raw, '\n'), nil
}

// PutCampaign implements results.Store: aggregates append to the
// campaigns log (last-wins on replay) and the log is rewritten in
// place — staged and renamed, runq-style — once it is mostly dead
// upserts.
func (s *Store) PutCampaign(c results.CampaignRecord) error {
	if err := s.writable(); err != nil {
		return err
	}
	if c.V > results.Version {
		return fmt.Errorf("segstore: campaign record v%d is newer than supported v%d", c.V, results.Version)
	}
	raw, err := results.StoreLine(nil, &c)
	if err != nil {
		return err
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if err := s.log.Append(raw); err != nil {
		return err
	}
	s.mu.Lock()
	s.campaigns[c.Name] = c
	s.syncLogBytesLocked()
	s.mu.Unlock()
	s.liveBytes[c.Name] = int64(len(raw))
	var live int64
	for _, n := range s.liveBytes {
		live += n
	}
	if s.logBytes > logCompactMin && s.logBytes > logCompactRatio*live {
		return s.compactLogLocked()
	}
	return nil
}

// compactLogLocked rewrites campaigns.jsonl to one line per campaign
// (caller holds logMu).
func (s *Store) compactLogLocked() error {
	s.mu.RLock()
	recs := make([]results.CampaignRecord, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		recs = append(recs, c)
	}
	s.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	var buf []byte
	live := make(map[string]int64, len(recs))
	for i := range recs {
		raw, err := results.StoreLine(nil, &recs[i])
		if err != nil {
			return err
		}
		buf = append(buf, raw...)
		live[recs[i].Name] = int64(len(raw))
	}
	if err := s.log.Rewrite(buf); err != nil {
		return err
	}
	s.mu.Lock()
	s.syncLogBytesLocked()
	s.mu.Unlock()
	s.liveBytes = live
	return nil
}

// syncLogBytesLocked takes the campaigns log's new clean length into
// logBytes and moves the bytes gauge by the change (caller holds logMu
// and mu).
func (s *Store) syncLogBytesLocked() {
	n := s.log.Size()
	gaugeAdd(gBytes, float64(n-s.logBytes))
	s.logBytes = n
}

// Campaigns implements results.Store.
func (s *Store) Campaigns() ([]results.CampaignRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]results.CampaignRecord, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Episodes implements results.Store: only the named campaign's shard
// is read. On the sorted fast path segments concatenate directly; a
// shard off it (out-of-order re-appends since the last Compact) takes
// the last-wins fold.
func (s *Store) Episodes(campaign string) ([]results.EpisodeRecord, error) {
	sh, err := s.getShard(campaign, false)
	if sh == nil || err != nil {
		return []results.EpisodeRecord{}, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.episodesLocked(sh)
}

func (s *Store) episodesLocked(sh *shard) ([]results.EpisodeRecord, error) {
	n, fast := sh.episodes()
	if n == 0 {
		return []results.EpisodeRecord{}, nil
	}
	if fast {
		mIndexHits.Add(1)
	} else {
		mRawScans.Add(1)
	}
	// Nothing is sized from n: it comes from index headers, and records
	// are counted as they parse.
	out := []results.EpisodeRecord{}
	var fold map[int]results.EpisodeRecord
	if !fast {
		fold = map[int]results.EpisodeRecord{}
	}
	read := func(seq int) error {
		raw, err := os.ReadFile(sh.segPath(seq))
		if err != nil {
			return fmt.Errorf("segstore: read segment: %w", err)
		}
		_, err = results.ScanJSONL(raw, func(lineno int, line []byte) error {
			var ep results.EpisodeRecord
			if err := json.Unmarshal(line, &ep); err != nil {
				return fmt.Errorf("%w: %w", results.ErrMalformedLine, err)
			}
			if fast {
				out = append(out, ep)
			} else {
				fold[ep.Index] = ep
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("segstore: %s: %w", sh.segPath(seq), err)
		}
		return nil
	}
	for i := range sh.sealed {
		if sh.sealed[i].n == 0 {
			continue
		}
		if err := read(sh.sealed[i].seq); err != nil {
			return nil, err
		}
	}
	if sh.active.n > 0 {
		if err := read(sh.active.seq); err != nil {
			return nil, err
		}
	}
	if fast {
		return out, nil
	}
	for _, ep := range fold {
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

// EpisodeCampaigns implements results.Store.
func (s *Store) EpisodeCampaigns() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.shards))
	for name, sh := range s.shards {
		sh.mu.Lock()
		n, _ := sh.episodes()
		sh.mu.Unlock()
		if n > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// AggregateEpisodes implements results.Aggregator: results.Aggregate
// over Episodes, with the identity of the lowest-index episode.
func (s *Store) AggregateEpisodes(name string) (*results.CampaignRecord, error) {
	eps, err := s.Episodes(name)
	if err != nil || len(eps) == 0 {
		return nil, err
	}
	meta := results.NewCampaign(name, eps[0].Scenario, eps[0].Mode, eps[0].ExpectCrashes, 0)
	rec := results.Aggregate(meta, eps)
	return &rec, nil
}

// Stats implements results.Store from metadata alone. Episode
// counts are exact when every shard's fast path proves its keys
// distinct; a shard off it reports an upper bound and flips Estimated
// until Compact rewrites it.
func (s *Store) Stats() (results.StoreStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := results.StoreStats{
		Format:    results.FormatSegstore,
		Path:      s.dir,
		Campaigns: len(s.campaigns),
	}
	st.BytesEstimate = s.logBytes
	for _, sh := range s.shards {
		sh.mu.Lock()
		n, exact := sh.episodes()
		st.Episodes += n
		st.BytesEstimate += sh.bytes()
		sh.mu.Unlock()
		if !exact {
			st.Estimated = true
		}
	}
	return st, nil
}

// Sync flushes every open segment writer and the campaigns log.
func (s *Store) Sync() error {
	if s.ro {
		return nil
	}
	s.logMu.Lock()
	firstErr := s.log.Sync()
	s.logMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.w != nil {
			if err := sh.w.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Close writes each shard's active-segment index as a scan cache for
// the next open and releases the lock. A store killed without Close
// loses only that cache — the next open rescans active tails.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var firstErr error
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if !s.ro {
			if err := sh.closeWriter(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.mu.Unlock()
	}
	gaugeAdd(gSegments, -float64(s.segmentCountLocked()))
	gaugeAdd(gBytes, -float64(s.recordBytesLocked()))
	if s.log != nil {
		if err := s.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.lockF != nil {
		if err := s.lockF.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Store) segmentCountLocked() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.sealed) + 1
	}
	return n
}

func (s *Store) recordBytesLocked() int64 {
	var b int64
	for _, sh := range s.shards {
		b += sh.bytes()
	}
	return b + s.logBytes
}
