package segstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/robotack/robotack/internal/results"
)

// A shard rewrite restores the sorted fast path after out-of-order
// re-appends (worker retries on a resumed campaign) by rewriting it
// last-wins in index order into a fresh generation directory and
// swapping CURRENT — the multi-file analogue of runq's staged journal
// rewrite. Readers and appenders of other shards are untouched; the
// shard being rewritten blocks only for the duration of its own
// rewrite.

// Compact synchronously rewrites every shard that has fallen off the
// sorted fast path — the `robotack-store compact` entry point. Nothing
// else rewrites a shard: one off the fast path stays correct, folded
// last-wins by Episodes and counted as an upper bound by Stats, until
// Compact runs. Shards already on the fast path are untouched. Returns
// the number of shards rewritten.
func (s *Store) Compact() (int, error) {
	if s.ro {
		return 0, errReadOnly
	}
	if s.closed.Load() {
		return 0, errClosed
	}
	s.mu.RLock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.RUnlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].name < shards[j].name })
	n := 0
	for _, sh := range shards {
		rewrote, err := s.compactShard(sh)
		if err != nil {
			return n, err
		}
		if rewrote {
			n++
		}
	}
	return n, nil
}

// compactShard rewrites one shard into generation gen+1: all records,
// folded last-wins and sorted by episode index, re-segmented at the
// roll threshold with fresh indexes, then CURRENT swapped and the old
// generation removed. A crash anywhere leaves either the old complete
// generation or the new one — never a mix — because CURRENT is the
// single commit point. Reports whether it rewrote anything (a shard
// already on the fast path is left alone).
func (s *Store) compactShard(sh *shard) (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.fastPath() {
		return false, nil
	}
	eps, err := s.episodesLocked(sh)
	if err != nil {
		return false, err
	}
	oldSegs := len(sh.sealed) + 1
	oldBytes := sh.bytes()

	// Stage the new generation.
	newGen := sh.gen + 1
	newDir := filepath.Join(sh.dir, genName(newGen))
	if err := os.RemoveAll(newDir); err != nil {
		return false, fmt.Errorf("segstore: clear staging generation: %w", err)
	}
	if err := os.MkdirAll(newDir, 0o755); err != nil {
		return false, fmt.Errorf("segstore: create generation: %w", err)
	}
	sealed, err := writeGeneration(newDir, eps, s.segBytes)
	if err != nil {
		return false, err
	}

	// Commit: close the old writer, swap CURRENT, drop the old dir.
	if sh.w != nil {
		sh.w.Close()
		sh.w = nil
	}
	if err := results.WriteFileAtomic(filepath.Join(sh.dir, currentFile), []byte(genName(newGen)+"\n")); err != nil {
		return false, err
	}
	oldDir := sh.genDir
	sh.gen = newGen
	sh.genDir = newDir
	sh.sealed = sealed
	sh.active = segMeta{seq: len(sealed), sorted: true}
	sh.recomputeSealedFast()
	os.RemoveAll(oldDir)

	mCompactions.Add(1)
	gaugeAdd(gSegments, float64(len(sealed)+1-oldSegs))
	gaugeAdd(gBytes, float64(sh.bytes()-oldBytes))
	return true, nil
}

// writeGeneration lays out sorted records as sealed segments (rolled at
// segBytes) plus an empty active segment, with per-segment indexes.
// Everything is synced before the caller commits the generation via
// CURRENT.
func writeGeneration(dir string, eps []results.EpisodeRecord, segBytes int64) ([]segMeta, error) {
	sort.Slice(eps, func(i, j int) bool { return eps[i].Index < eps[j].Index })
	var sealed []segMeta
	var w *results.Log
	var m segMeta
	defer func() {
		if w != nil {
			w.Close()
		}
	}()
	seal := func() error {
		if w == nil {
			return nil
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("segstore: close segment: %w", err)
		}
		w = nil
		if err := results.WriteFileAtomic(filepath.Join(dir, idxName(m.seq)), encodeIdx(&m)); err != nil {
			return err
		}
		sealed = append(sealed, m)
		return nil
	}
	for i := range eps {
		if w == nil {
			m = segMeta{seq: len(sealed), sorted: true}
			nw, err := results.OpenLogAt(filepath.Join(dir, segName(m.seq)), 0)
			if err != nil {
				return nil, err
			}
			w = nw
		}
		raw, err := json.Marshal(eps[i])
		if err != nil {
			return nil, fmt.Errorf("segstore: encode episode: %w", err)
		}
		raw = append(raw, '\n')
		if err := w.Append(raw); err != nil {
			return nil, err
		}
		m.add(eps[i].Index)
		m.bytes += int64(len(raw))
		if m.bytes >= segBytes {
			if err := seal(); err != nil {
				return nil, err
			}
		}
	}
	if err := seal(); err != nil {
		return nil, err
	}
	// The empty active segment, so reopen sees seq len(sealed) as the
	// appendable tail rather than mistaking the last sealed segment.
	aw, err := results.OpenLogAt(filepath.Join(dir, segName(len(sealed))), 0)
	if err != nil {
		return nil, err
	}
	aw.Close()
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return sealed, nil
}
