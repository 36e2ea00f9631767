package segstore

import (
	"fmt"
	"os"
	"sort"
)

// A shard rewrite restores the sorted fast path after out-of-order
// re-appends by rewriting it last-wins in index order into a fresh
// generation directory and swapping CURRENT — the multi-file analogue
// of runq's staged journal rewrite. Re-appends come from a campaign
// key written twice: a re-run without -resume, or two served runs that
// default to the same <scenario>-<mode> record name. Readers and
// appenders of other shards are untouched; the shard being rewritten
// blocks only for the duration of its own rewrite.

// Compact synchronously rewrites every shard that has fallen off the
// sorted fast path — the `robotack-store compact` entry point. Nothing
// else rewrites a shard: one off the fast path stays correct, folded
// last-wins by Episodes and counted as an upper bound by Stats, until
// Compact runs. Shards already on the fast path are untouched. Returns
// the number of shards rewritten.
func (s *Store) Compact() (int, error) {
	if err := s.writable(); err != nil {
		return 0, err
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
// folded last-wins and sorted by episode index, written through the
// live append path (shard.append), so the new generation holds the
// segments and indexes that appending them in index order writes; then
// CURRENT swapped and the old generation removed. A crash anywhere
// leaves either the old complete generation or the new one — never a
// mix — because CURRENT is the single commit point. Reports whether it
// rewrote anything (a shard already on the fast path is left alone).
func (s *Store) compactShard(sh *shard) (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.fastPath() {
		return false, nil
	}
	// Off the fast path, episodesLocked folds last-wins into index order.
	eps, err := s.episodesLocked(sh)
	if err != nil {
		return false, err
	}
	oldSegs := len(sh.sealed) + 1
	oldBytes := sh.bytes()

	// Stage the new generation as a fresh shard. The last partial
	// segment is sealed, and the empty active segment the seal opened
	// is closed again; everything is synced before CURRENT commits it.
	next := newShard(sh.dir, sh.name, sh.gen+1)
	if err := os.RemoveAll(next.genDir); err != nil {
		return false, fmt.Errorf("segstore: clear staging generation: %w", err)
	}
	if err := os.MkdirAll(next.genDir, 0o755); err != nil {
		return false, fmt.Errorf("segstore: create generation: %w", err)
	}
	defer next.dropWriter()
	for i := range eps {
		raw, err := encodeEpisode(eps[i])
		if err != nil {
			return false, err
		}
		if _, err := next.append(raw, eps[i].Index, s.segBytes); err != nil {
			return false, err
		}
	}
	if next.active.n > 0 {
		if err := next.seal(); err != nil {
			return false, err
		}
	}
	if err := next.dropWriter(); err != nil {
		return false, err
	}
	if d, err := os.Open(next.genDir); err == nil {
		d.Sync() // best effort: not every platform can sync a directory
		d.Close()
	}

	// Commit: close the old writer, swap CURRENT, drop the old dir.
	if err := sh.dropWriter(); err != nil {
		return false, err
	}
	if err := next.writeCurrent(); err != nil {
		return false, err
	}
	oldDir := sh.genDir
	sh.gen, sh.genDir, sh.sealed, sh.active = next.gen, next.genDir, next.sealed, next.active
	os.RemoveAll(oldDir)

	mCompactions.Add(1)
	gaugeAdd(gSegments, float64(len(sh.sealed)+1-oldSegs))
	gaugeAdd(gBytes, float64(sh.bytes()-oldBytes))
	return true, nil
}
