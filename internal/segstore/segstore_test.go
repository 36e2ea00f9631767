package segstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/results/storetest"
)

// smallSeg forces multi-segment shards with test-sized data.
const smallSeg = 2 << 10

func openSmall(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, WithSegmentBytes(smallSeg))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corruptStore simulates a kill -9 mid-append on both append targets:
// a torn record at the end of the torn campaign's active segment and
// of the campaigns log.
func corruptStore(t *testing.T, dir string) {
	t.Helper()
	appendGarbage := func(path, garbage string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(garbage); err != nil {
			t.Fatal(err)
		}
	}
	appendGarbage(filepath.Join(dir, campaignsFile), `{"kind":"campaign","campaign":{"na`)
	sh := filepath.Join(dir, shardsDir, escapeName("torn"))
	gen, err := readCurrent(sh)
	if err != nil {
		t.Fatal(err)
	}
	seqs, _, err := listSegs(filepath.Join(sh, genName(gen)))
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no segments in torn shard: %v", err)
	}
	active := seqs[len(seqs)-1]
	appendGarbage(filepath.Join(sh, genName(gen), segName(active)), `{"campaign":"torn","ind`)
}

func TestSegstoreSuite(t *testing.T) {
	storetest.Run(t, func(t *testing.T) results.Store {
		s := openSmall(t, t.TempDir())
		t.Cleanup(func() { s.Close() })
		return s
	})
	storetest.RunDurable(t, func(t *testing.T, dir string) results.DurableStore {
		return openSmall(t, dir)
	}, corruptStore)
}

func TestDiffParityAcrossBackends(t *testing.T) {
	storetest.RunDiffParity(t, map[string]storetest.Factory{
		"mem": func(t *testing.T) results.Store { return results.NewMemStore() },
		"file": func(t *testing.T) results.Store {
			s, err := results.Open(filepath.Join(t.TempDir(), "store.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
		"segstore": func(t *testing.T) results.Store {
			s := openSmall(t, t.TempDir())
			t.Cleanup(func() { s.Close() })
			return s
		},
	})
}

func TestNameEscapingRoundTrip(t *testing.T) {
	cases := []string{
		"", "plain", "with space", "a/b/c", "..", ".hidden", "%41", "δ-κ", "camp:v2|x",
		strings.Repeat("é", 20),
	}
	seen := map[string]bool{}
	for _, name := range cases {
		esc := escapeName(name)
		if strings.ContainsAny(esc, "/\\: |") || strings.HasPrefix(esc, ".") {
			t.Errorf("escapeName(%q) = %q is not filesystem-safe", name, esc)
		}
		if seen[esc] {
			t.Errorf("escapeName(%q) = %q collides with another case", name, esc)
		}
		seen[esc] = true
		back, err := unescapeName(esc)
		if err != nil {
			t.Fatalf("unescapeName(%q): %v", esc, err)
		}
		if back != name {
			t.Errorf("round trip %q -> %q -> %q", name, esc, back)
		}
	}
	for _, bad := range []string{"%", "%4", "%GG", "abc%"} {
		if bad == "%" {
			continue // the empty-name encoding, valid
		}
		if _, err := unescapeName(bad); err == nil {
			t.Errorf("unescapeName(%q) accepted a malformed escape", bad)
		}
	}
}

func TestIdxCodecRoundTrip(t *testing.T) {
	for _, m := range []segMeta{
		{seq: 3, n: 9, minIdx: 0, maxIdx: 8, bytes: 12345, sorted: true},
		// Unsorted: duplicates or reordering.
		{seq: 4, n: 5, minIdx: 2, maxIdx: 40, bytes: 1700},
		// The empty active segment.
		{seq: 5, sorted: true},
		// Signed, wide indexes.
		{seq: 6, n: 2, minIdx: -3, maxIdx: 1 << 40, bytes: 1 << 41},
	} {
		got, err := decodeIdx(encodeIdx(&m), m.seq)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("header changed: %+v -> %+v", m, got)
		}
	}
}

// sealIdx CRC-seals a hand-built index payload.
func sealIdx(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
}

// idxPayload is encodeIdx's layout with every field chosen freely.
func idxPayload(flags, n uint64, minIdx, maxIdx int64, size uint64) []byte {
	b := append([]byte(idxMagic), codecVersion)
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, n)
	b = binary.AppendVarint(b, minIdx)
	b = binary.AppendVarint(b, maxIdx)
	return binary.AppendUvarint(b, size)
}

func TestIdxCodecRejectsCorruption(t *testing.T) {
	m := segMeta{seq: 0, n: 1, minIdx: 5, maxIdx: 5, bytes: 10, sorted: true}
	raw := encodeIdx(&m)
	for _, mutate := range []struct {
		name string
		f    func([]byte) []byte
	}{
		{"bitflip", func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0x40; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"empty", func([]byte) []byte { return nil }},
		{"trailing", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xFF) }},
	} {
		if _, err := decodeIdx(mutate.f(raw), 0); err == nil {
			t.Errorf("%s index accepted", mutate.name)
		}
	}
	// An older writer's index of a sorted sealed segment: flag 1<<1 and
	// a partial aggregate after the header.
	aggIdx, err := os.ReadFile(filepath.Join(oldLayout, "c", "sorted", genName(0), idxName(0)))
	if err != nil {
		t.Fatal(err)
	}
	newer := idxPayload(flagSorted, 1, 5, 5, 10)
	newer[len(idxMagic)] = codecVersion + 1
	// CRC-valid headers that no segment could match. None may decode:
	// open would trust their counts.
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"aggregate-carrying", aggIdx},
		{"aggregate flag", sealIdx(idxPayload(flagSorted|1<<1, 1, 5, 5, 10))},
		{"newer version", sealIdx(newer)},
		{"count negative as int", sealIdx(idxPayload(flagSorted, 1<<63, 0, 2, 990))},
		{"length negative as int", sealIdx(idxPayload(flagSorted, 3, 0, 2, 1<<63))},
		{"more records than bytes", sealIdx(idxPayload(flagSorted, 991, 0, 990, 990))},
		{"inverted range", sealIdx(idxPayload(0, 3, 9, 2, 990))},
	} {
		if m, err := decodeIdx(tc.raw, 0); err == nil {
			t.Errorf("%s index accepted as %+v", tc.name, m)
		}
	}
}

// FuzzIdxDecode: decodeIdx never panics, and any header it accepts
// could describe a segment — a count and a length that stay
// non-negative, no more records than bytes, an ordered index range
// when it holds records — and decodes unchanged after a re-encode. The
// seed corpus (testdata/fuzz/FuzzIdxDecode) holds a sorted header, an
// unsorted one, an older writer's aggregate-flagged one and a truncated
// one.
func FuzzIdxDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeIdx(raw, 7)
		if err != nil {
			return
		}
		if m.seq != 7 || m.n < 0 || m.bytes < 0 || int64(m.n) > m.bytes || (m.n > 0 && m.minIdx > m.maxIdx) {
			t.Fatalf("accepted an impossible header: %+v", m)
		}
		again, err := decodeIdx(encodeIdx(&m), 7)
		if err != nil || again != m {
			t.Fatalf("re-encode changed the header: %+v -> %+v (%v)", m, again, err)
		}
	})
}

// TestOpenDistrustsImpossibleIndex: a CRC-valid .idx whose count a
// segment cannot hold is stale, not trusted. Open rescans the segment
// and rewrites its index, and Stats and Episodes see the records.
func TestOpenDistrustsImpossibleIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    func(size int64) uint64
	}{
		{"count negative as int", func(int64) uint64 { return 1 << 63 }},
		{"count above length", func(size int64) uint64 { return uint64(size) + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, WithSegmentBytes(800)) // three records seal segment 0
			if err != nil {
				t.Fatal(err)
			}
			storetest.Fill(t, s, "bad", 4)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			genDir := filepath.Join(dir, shardsDir, escapeName("bad"), genName(0))
			fi, err := os.Stat(filepath.Join(genDir, segName(0)))
			if err != nil {
				t.Fatal(err)
			}
			bad := sealIdx(idxPayload(flagSorted, tc.n(fi.Size()), 0, 2, uint64(fi.Size())))
			if err := os.WriteFile(filepath.Join(genDir, idxName(0)), bad, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err = Open(dir, WithSegmentBytes(800))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st := s.OpenStats(); st.ScannedBytes != fi.Size() {
				t.Errorf("open scanned %d bytes, want the %d of the segment behind the bad index", st.ScannedBytes, fi.Size())
			}
			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Episodes != 4 || st.Estimated {
				t.Errorf("stats = %+v, want exactly 4 episodes", st)
			}
			eps, err := s.Episodes("bad")
			if err != nil || len(eps) != 4 {
				t.Fatalf("Episodes = %d records, %v; want 4", len(eps), err)
			}
			raw, err := os.ReadFile(filepath.Join(genDir, idxName(0)))
			if err != nil {
				t.Fatal(err)
			}
			if m, err := decodeIdx(raw, 0); err != nil || m.n != 3 {
				t.Errorf("rewritten index = %+v, %v; want 3 records", m, err)
			}
		})
	}
}

// oldLayout is a store an older segstore wrote, before indexes became
// headers alone: 4 KiB segments; campaign "sorted", appended in index
// order with its aggregate stored, whose sealed .idx files carry
// partial aggregates beside a MANIFEST; and campaign "shuffled",
// appended in random order, which background compaction left at
// generation g000002 with the same kind of indexes.
const oldLayout = "testdata/oldlayout"

// foldSegments reads a store's records straight from the .seg files of
// each shard's CURRENT generation, folded last-wins and sorted by index.
func foldSegments(t *testing.T, dir string) map[string][]results.EpisodeRecord {
	t.Helper()
	out := map[string][]results.EpisodeRecord{}
	shards, err := filepath.Glob(filepath.Join(dir, shardsDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		cur, err := os.ReadFile(filepath.Join(sh, currentFile))
		if err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(sh, strings.TrimSpace(string(cur)), "*"+segSuffix))
		if err != nil {
			t.Fatal(err)
		}
		fold := map[int]results.EpisodeRecord{}
		for _, seg := range segs { // Glob sorts, and names are zero-padded
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				if line == "" {
					continue
				}
				var ep results.EpisodeRecord
				if err := json.Unmarshal([]byte(line), &ep); err != nil {
					t.Fatalf("%s: %v", seg, err)
				}
				fold[ep.Index] = ep
			}
		}
		var eps []results.EpisodeRecord
		for _, ep := range fold {
			eps = append(eps, ep)
		}
		sort.Slice(eps, func(i, j int) bool { return eps[i].Index < eps[j].Index })
		out[eps[0].Campaign] = eps
	}
	return out
}

// TestOpenOldLayout: a store an older segstore wrote reads as the fold
// of its segments, read-only and after a writer open; the writer open
// deletes every MANIFEST and rewrites the aggregate-carrying indexes
// as headers, after which a reopen scans no record.
func TestOpenOldLayout(t *testing.T) {
	want := foldSegments(t, oldLayout)
	if len(want["sorted"]) != 100 || len(want["shuffled"]) != 80 {
		t.Fatalf("fixture holds %d sorted and %d shuffled episodes, want 100 and 80",
			len(want["sorted"]), len(want["shuffled"]))
	}
	check := func(t *testing.T, s *Store, dir string) {
		t.Helper()
		wantStats := results.StoreStats{Format: results.FormatSegstore, Path: dir, Campaigns: 1, Episodes: 180}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && (strings.HasSuffix(path, segSuffix) || d.Name() == campaignsFile) {
				fi, err := d.Info()
				if err != nil {
					return err
				}
				wantStats.BytesEstimate += fi.Size()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s.Stats(); err != nil || st != wantStats {
			t.Errorf("Stats = %+v, %v; want %+v", st, err, wantStats)
		}
		for name, eps := range want {
			got, err := s.Episodes(name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, eps) {
				t.Errorf("%s: Episodes differ from the segments' last-wins fold", name)
			}
			agg, err := s.AggregateEpisodes(name)
			if err != nil {
				t.Fatal(err)
			}
			wantAgg := results.Aggregate(results.NewCampaign(name, eps[0].Scenario, eps[0].Mode, eps[0].ExpectCrashes, 0), eps)
			if agg == nil || !reflect.DeepEqual(*agg, wantAgg) {
				t.Errorf("%s: AggregateEpisodes = %+v, want %+v", name, agg, wantAgg)
			}
		}
	}

	ro, err := Load(oldLayout)
	if err != nil {
		t.Fatal(err)
	}
	check(t, ro, oldLayout)
	ro.Close()

	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(oldLayout)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.OpenStats(); st.ScannedBytes == 0 {
		t.Error("writer open trusted the older indexes: scanned 0 bytes")
	}
	check(t, s, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, shardsDir, "*", "g*", oldManifestFile)); len(m) > 0 {
		t.Errorf("writer open left %v", m)
	}
	idxs, err := filepath.Glob(filepath.Join(dir, shardsDir, "*", "g*", "*"+idxSuffix))
	if err != nil || len(idxs) != 15 {
		t.Fatalf("%d indexes (%v), want 15: 13 sealed, 2 active", len(idxs), err)
	}
	for _, p := range idxs {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeIdx(raw, 0); err != nil {
			t.Errorf("%s not rewritten: %v", p, err)
		}
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.OpenStats(); st.ScannedBytes != 0 {
		t.Errorf("second open scanned %d bytes, want 0", st.ScannedBytes)
	}
	check(t, s, dir)
}

// TestOpenReadsIndexesNotRecords pins the tentpole property
// deterministically: a cleanly closed store reopens from metadata
// alone, no matter how many records it holds.
func TestOpenReadsIndexesNotRecords(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	for _, c := range []string{"a", "b"} {
		storetest.Fill(t, s, c, 400) // hundreds of records, several segments each
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openSmall(t, dir)
	st := s.OpenStats()
	if st.ScannedBytes != 0 {
		t.Errorf("clean reopen scanned %d raw bytes, want 0 (index-driven open)", st.ScannedBytes)
	}
	if st.Segments < 6 {
		t.Errorf("expected multi-segment shards, got %d segments", st.Segments)
	}
	if st.IndexBytes <= 0 {
		t.Errorf("open read no index bytes: %+v", st)
	}
	eps, err := s.Episodes("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 400 {
		t.Fatalf("lost records: %d, want 400", len(eps))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash (no Close, so no active-idx cache) forces a rescan of the
	// active tails only — bounded by the roll threshold, not the store.
	for _, c := range []string{"a", "b"} {
		sh := filepath.Join(dir, shardsDir, escapeName(c))
		gen, err := readCurrent(sh)
		if err != nil {
			t.Fatal(err)
		}
		seqs, _, err := listSegs(filepath.Join(sh, genName(gen)))
		if err != nil {
			t.Fatal(err)
		}
		os.Remove(filepath.Join(sh, genName(gen), idxName(seqs[len(seqs)-1])))
	}
	s = openSmall(t, dir)
	defer s.Close()
	st = s.OpenStats()
	if st.ScannedBytes == 0 {
		t.Error("expected an active-tail rescan after losing the close cache")
	}
	if st.ScannedBytes > 2*smallSeg+2048 {
		t.Errorf("crash recovery scanned %d bytes; want bounded by the two active tails (~%d)", st.ScannedBytes, 2*smallSeg)
	}
}

// TestResumeParityWithFileStore is the kill -9 resume scenario: both
// backends ingest the same interrupted-then-resumed record stream
// (duplicate re-appends included) and must agree bit for bit.
func TestResumeParityWithFileStore(t *testing.T) {
	dir := t.TempDir()
	seg := openSmall(t, dir)
	file, err := results.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	stores := []results.Store{seg, file}
	appendBoth := func(ep results.EpisodeRecord) {
		for _, s := range stores {
			if err := s.Append(ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	// First run: 120 episodes, killed before the aggregate lands.
	for i := 0; i < 120; i++ {
		appendBoth(storetest.Episode("resume", i))
	}
	// Simulate the segstore process dying: reopen (no clean Close; the
	// torn tail is a separate test — here the kill hit between lines).
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg = openSmall(t, dir)
	defer seg.Close()
	stores[0] = seg
	// Resume re-runs a window of episodes (the retry overlap), then
	// finishes the campaign and stores the aggregate.
	var all []results.EpisodeRecord
	for i := 0; i < 200; i++ {
		all = append(all, storetest.Episode("resume", i))
	}
	for i := 100; i < 200; i++ {
		appendBoth(all[i])
	}
	meta := results.NewCampaign("resume", "DS-2", all[0].Mode, all[0].ExpectCrashes, 7)
	rec := results.Aggregate(meta, all)
	for _, s := range stores {
		if err := s.PutCampaign(rec); err != nil {
			t.Fatal(err)
		}
	}

	segEps, err := seg.Episodes("resume")
	if err != nil {
		t.Fatal(err)
	}
	fileEps, err := file.Episodes("resume")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segEps, fileEps) {
		t.Fatalf("episode streams diverge: %d vs %d records", len(segEps), len(fileEps))
	}
	diffs, err := results.Diff(seg, file)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		if !reflect.DeepEqual(d.A, d.B) {
			t.Errorf("aggregates diverge for %s:\n seg %+v\nfile %+v", d.Name, d.A, d.B)
		}
	}
	a, _ := json.Marshal(segEps)
	b, _ := json.Marshal(fileEps)
	if string(a) != string(b) {
		t.Error("episode JSON not byte-identical across backends")
	}
}

// TestCompactionRestoresFastPath drives the out-of-order append path
// and one shard's generation rewrite directly (white-box: Compact's
// per-shard step).
func TestCompactionRestoresFastPath(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	defer s.Close()
	storetest.Fill(t, s, "cmp", 150)
	sh, err := s.getShard("cmp", false)
	if err != nil || sh == nil {
		t.Fatal(err)
	}
	// A second write of the campaign key re-appends an old index out of
	// order.
	if err := s.Append(storetest.Episode("cmp", 3)); err != nil {
		t.Fatal(err)
	}
	want, err := s.Episodes("cmp")
	if err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	fast := sh.fastPath()
	oldGen := sh.gen
	sh.mu.Unlock()
	if fast {
		t.Fatal("out-of-order append did not break the fast path")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Estimated || st.Episodes != 151 {
		t.Fatalf("pre-compaction stats = %+v, want estimated upper bound 151", st)
	}

	rewrote, err := s.compactShard(sh)
	if err != nil {
		t.Fatal(err)
	}
	if !rewrote {
		t.Error("compactShard reported nothing rewritten")
	}
	sh.mu.Lock()
	fast = sh.fastPath()
	newGen := sh.gen
	sh.mu.Unlock()
	if !fast {
		t.Error("compaction did not restore the fast path")
	}
	if newGen != oldGen+1 {
		t.Errorf("generation = %d, want %d", newGen, oldGen+1)
	}
	if _, err := os.Stat(filepath.Join(dir, shardsDir, escapeName("cmp"), genName(oldGen))); !os.IsNotExist(err) {
		t.Errorf("old generation dir not removed: %v", err)
	}
	got, err := s.Episodes("cmp")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compaction changed the records: %d vs %d", len(got), len(want))
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Estimated || st.Episodes != 150 {
		t.Fatalf("post-compaction stats = %+v, want exact 150", st)
	}

	// Appending continues normally in the new generation, and a reopen
	// recovers it.
	if err := s.Append(storetest.Episode("cmp", 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openSmall(t, dir)
	defer s2.Close()
	eps, err := s2.Episodes("cmp")
	if err != nil || len(eps) != 151 {
		t.Fatalf("reopen after compaction: %d records, %v", len(eps), err)
	}
}

// TestCompactExported drives the `robotack-store compact` entry point:
// only shards off the fast path are rewritten, and a second run is a
// no-op.
func TestCompactExported(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	defer s.Close()
	storetest.Fill(t, s, "dirty", 80)
	storetest.Fill(t, s, "clean", 40)
	if err := s.Append(storetest.Episode("dirty", 2)); err != nil {
		t.Fatal(err)
	}
	want, err := s.Episodes("dirty")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Compact rewrote %d shards, want 1 (only the out-of-order one)", n)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Estimated || st.Episodes != 120 {
		t.Fatalf("post-compact stats = %+v, want exact 120", st)
	}
	got, err := s.Episodes("dirty")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Compact changed the records")
	}
	if n, err = s.Compact(); err != nil || n != 0 {
		t.Fatalf("second Compact = (%d, %v), want no-op", n, err)
	}

	ro, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Compact(); err == nil {
		t.Error("Compact on a read-only store did not fail")
	}
}

// TestFastPathRule checks the fast-path rule on segment headers alone:
// every segment sorted, and each segment holding records starting above
// every index before it. An empty segment constrains nothing.
func TestFastPathRule(t *testing.T) {
	seg := func(minIdx, maxIdx int, sorted bool) segMeta {
		return segMeta{n: maxIdx - minIdx + 1, minIdx: minIdx, maxIdx: maxIdx, sorted: sorted}
	}
	empty := segMeta{sorted: true}
	for _, tc := range []struct {
		name   string
		sealed []segMeta
		active segMeta
		want   bool
	}{
		{"empty shard", nil, empty, true},
		{"active alone", nil, seg(3, 9, true), true},
		{"ascending", []segMeta{seg(0, 4, true), seg(5, 9, true)}, seg(10, 12, true), true},
		{"empty active after a roll", []segMeta{seg(0, 4, true)}, empty, true},
		{"empty sealed segment", []segMeta{seg(0, 4, true), empty, seg(5, 6, true)}, seg(7, 7, true), true},
		{"active re-appends a sealed index", []segMeta{seg(0, 4, true), seg(5, 9, true)}, seg(3, 3, true), false},
		{"sealed segments overlap", []segMeta{seg(0, 4, true), seg(4, 6, true)}, empty, false},
		{"unsorted sealed segment", []segMeta{seg(0, 4, false)}, seg(5, 5, true), false},
		{"unsorted active", []segMeta{seg(0, 4, true)}, seg(5, 9, false), false},
	} {
		sh := &shard{sealed: tc.sealed, active: tc.active}
		if got := sh.fastPath(); got != tc.want {
			t.Errorf("%s: fastPath = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// compactLayoutDigests pins TestCompactLayoutDigest's store, per roll
// threshold: the SHA-256 of its manifest, one "path size sha256" line
// per file in path order.
var compactLayoutDigests = map[int64]string{
	700:  "5d8620a8401f41292e7ff098bbd63d34e35126577fc177e98be0f086e56fcc31",
	2000: "b60a7472d3a514c3a6ca15aa04303b5a451e3b9044c699b0227db5eb13a17d7a",
}

// TestCompactLayoutDigest pins the bytes of every file a store writes
// on both segment write paths. Shard "a" takes out-of-order re-appends,
// so Compact rewrites it into generation 1, which then takes more
// appends; shard "b" is appended in index order and stays on its live
// generation. Then both get aggregates and the store is closed.
func TestCompactLayoutDigest(t *testing.T) {
	for segBytes, want := range compactLayoutDigests {
		t.Run(fmt.Sprint(segBytes), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, WithSegmentBytes(segBytes))
			if err != nil {
				t.Fatal(err)
			}
			appendEp := func(ep results.EpisodeRecord) {
				t.Helper()
				if err := s.Append(ep); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 23; i++ {
				appendEp(storetest.Episode("a", i))
				if i < 9 {
					appendEp(storetest.Episode("b", i))
				}
			}
			for _, i := range []int{4, 17, 0, 9, 22} { // a re-run of five episodes
				ep := storetest.Episode("a", i)
				ep.Frames += 1000
				appendEp(ep)
			}
			if n, err := s.Compact(); err != nil || n != 1 {
				t.Fatalf("Compact = (%d, %v), want 1 shard rewritten", n, err)
			}
			for i := 23; i < 30; i++ {
				appendEp(storetest.Episode("a", i))
			}
			for _, name := range []string{"a", "b"} {
				rec, err := s.AggregateEpisodes(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.PutCampaign(*rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			var manifest strings.Builder
			err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() || d.Name() == lockFileName {
					return err
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				rel, err := filepath.Rel(dir, path)
				fmt.Fprintf(&manifest, "%s %d %x\n", filepath.ToSlash(rel), len(raw), sha256.Sum256(raw))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(manifest.String()))); got != want {
				t.Errorf("layout digest %s, want %s; files:\n%s", got, want, manifest.String())
			}
		})
	}
}

// TestAggregateEpisodesMatchesRawFold checks AggregateEpisodes against
// results.Aggregate over Episodes across append patterns.
func TestAggregateEpisodesMatchesRawFold(t *testing.T) {
	check := func(t *testing.T, s *Store, name string) {
		t.Helper()
		got, err := s.AggregateEpisodes(name)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := s.Episodes(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(eps) == 0 {
			if got != nil {
				t.Fatalf("aggregate for empty campaign: %+v", got)
			}
			return
		}
		meta := results.NewCampaign(name, eps[0].Scenario, eps[0].Mode, eps[0].ExpectCrashes, 0)
		want := results.Aggregate(meta, eps)
		if got == nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("merged aggregate differs from raw fold:\n got %+v\nwant %+v", got, &want)
		}
	}
	t.Run("SortedMultiSegment", func(t *testing.T) {
		s := openSmall(t, t.TempDir())
		defer s.Close()
		for i := 0; i < 300; i++ {
			if err := s.Append(storetest.Episode("x", i)); err != nil {
				t.Fatal(err)
			}
		}
		check(t, s, "x")
	})
	t.Run("OutOfOrder", func(t *testing.T) {
		s := openSmall(t, t.TempDir())
		defer s.Close()
		for i := 0; i < 100; i++ {
			if err := s.Append(storetest.Episode("x", (i*37)%100)); err != nil {
				t.Fatal(err)
			}
		}
		check(t, s, "x")
	})
	t.Run("DuplicateRetries", func(t *testing.T) {
		s := openSmall(t, t.TempDir())
		defer s.Close()
		for i := 0; i < 80; i++ {
			if err := s.Append(storetest.Episode("x", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 40; i < 80; i++ {
			if err := s.Append(storetest.Episode("x", i)); err != nil {
				t.Fatal(err)
			}
		}
		check(t, s, "x")
	})
	t.Run("Empty", func(t *testing.T) {
		s := openSmall(t, t.TempDir())
		defer s.Close()
		check(t, s, "missing")
	})
	t.Run("AfterReopen", func(t *testing.T) {
		dir := t.TempDir()
		s := openSmall(t, dir)
		for i := 0; i < 300; i++ {
			if err := s.Append(storetest.Episode("x", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openSmall(t, dir)
		defer s.Close()
		if st := s.OpenStats(); st.ScannedBytes != 0 {
			t.Fatalf("reopen scanned %d bytes", st.ScannedBytes)
		}
		check(t, s, "x")
	})
}

// TestIndexCompactness enforces the bytes-per-episode budget on all
// index metadata (satellite: segment indexes must stay a small
// constant factor of the record count, or open stops being cheap).
const maxIndexBytesPerEpisode = 64

func TestIndexCompactness(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	const n = 500
	storetest.Fill(t, s, "budget", n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var idxBytes int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, idxSuffix) {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			idxBytes += fi.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const fixedOverhead = 4096 // magics, close caches, empty-store floor
	if idxBytes > n*maxIndexBytesPerEpisode+fixedOverhead {
		t.Errorf("index metadata is %d bytes for %d episodes (%.1f B/episode), budget %d B/episode",
			idxBytes, n, float64(idxBytes)/n, maxIndexBytesPerEpisode)
	}
	if idxBytes == 0 {
		t.Error("no index metadata found")
	}
}

func TestMigrateFromJSONL(t *testing.T) {
	srcDir := t.TempDir()
	src := filepath.Join(srcDir, "old.jsonl")
	fs, err := results.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	storetest.Fill(t, fs, "m1", 50)
	storetest.Fill(t, fs, "m2", 30)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn tail in the source must be tolerated.
	f, err := os.OpenFile(src, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"episode","epis`)
	f.Close()

	dst := filepath.Join(t.TempDir(), "segdir")
	st, err := MigrateFromJSONL(src, dst, WithSegmentBytes(smallSeg))
	if err != nil {
		t.Fatal(err)
	}
	if st.Campaigns != 2 || st.Episodes != 80 || st.Estimated {
		t.Fatalf("migrate stats = %+v, want exact 2 campaigns / 80 episodes", st)
	}

	seg, err := Load(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	old, err := results.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := results.Diff(old, seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		if !reflect.DeepEqual(d.A, d.B) {
			t.Errorf("migration changed %s:\n old %+v\n new %+v", d.Name, d.A, d.B)
		}
	}

	// Never merge into live data.
	if _, err := MigrateFromJSONL(src, dst); err == nil {
		t.Error("migrate into a non-empty destination succeeded")
	}
}

func TestDetectFormatAndOpenAny(t *testing.T) {
	tmp := t.TempDir()
	segDir := filepath.Join(tmp, "segdir")
	s := openSmall(t, segDir)
	storetest.Fill(t, s, "d", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jsonlPath := filepath.Join(tmp, "flat.jsonl")
	fs, err := results.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()

	for _, tc := range []struct {
		path, want string
	}{
		{segDir, results.FormatSegstore},
		{jsonlPath, results.FormatJSONL},
		{filepath.Join(tmp, "new.jsonl"), results.FormatJSONL},
		{filepath.Join(tmp, "newdir"), results.FormatSegstore},
	} {
		got, err := DetectFormat(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("DetectFormat(%s) = %s, want %s", tc.path, got, tc.want)
		}
	}

	ds, err := OpenAny(segDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.(*Store); !ok {
		t.Errorf("OpenAny(dir) returned %T, want *segstore.Store", ds)
	}
	ds.Close()
	ds, err = OpenAny(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.(*results.FileStore); !ok {
		t.Errorf("OpenAny(file) returned %T, want *results.FileStore", ds)
	}
	ds.Close()
}

func TestOpenRefusesForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "precious.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open adopted a non-empty, non-segstore directory")
	}
}

func TestLockExcludesSecondWriterButNotReaders(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	defer s.Close()
	storetest.Fill(t, s, "lk", 10)
	if _, err := Open(dir); err == nil {
		t.Fatal("second writer acquired the store lock")
	}
	ro, err := Load(dir)
	if err != nil {
		t.Fatalf("read-only load blocked by writer lock: %v", err)
	}
	defer ro.Close()
	eps, err := ro.Episodes("lk")
	if err != nil || len(eps) != 10 {
		t.Fatalf("read-only load: %d records, %v", len(eps), err)
	}
	if err := ro.Append(storetest.Episode("lk", 11)); err == nil {
		t.Error("read-only store accepted an append")
	}
	if err := ro.PutCampaign(results.NewCampaign("lk", "DS-2", 1, true, 0)); err == nil {
		t.Error("read-only store accepted a campaign")
	}
}

func TestCampaignLogCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openSmall(t, dir)
	defer s.Close()
	rec := results.NewCampaign("churn", "DS-2", 1, true, 0)
	for i := 0; i < 4000; i++ {
		rec.Runs = i
		if err := s.PutCampaign(rec); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, campaignsFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > logCompactMin*2 {
		t.Errorf("campaigns log grew to %d bytes despite last-wins compaction", fi.Size())
	}
	recs, err := s.Campaigns()
	if err != nil || len(recs) != 1 || recs[0].Runs != 3999 {
		t.Fatalf("log compaction lost the latest upsert: %+v, %v", recs, err)
	}
}

// TestBytesGaugeTracksStats: robotack_segstore_bytes moves with every
// write by exactly what Stats' BytesEstimate counts — segment appends,
// campaigns-log upserts and a campaigns-log compaction — and Close
// takes back all of it.
func TestBytesGaugeTracksStats(t *testing.T) {
	dir := t.TempDir()
	base := gBytes.Value()
	s := openSmall(t, dir)
	check := func(what string) int64 {
		t.Helper()
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got := gBytes.Value() - base; got != float64(st.BytesEstimate) {
			t.Fatalf("after %s: gauge moved by %.0f, Stats counts %d bytes", what, got, st.BytesEstimate)
		}
		return st.BytesEstimate
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(storetest.Episode("g", i)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("append %d", i))
	}
	rec := results.NewCampaign("g", "DS-2", 1, true, 0)
	prev, compacted := check("the appends"), false
	for i := 0; i < 4000 && !compacted; i++ {
		rec.Runs = i
		if err := s.PutCampaign(rec); err != nil {
			t.Fatal(err)
		}
		n := check(fmt.Sprintf("upsert %d", i))
		compacted, prev = n < prev, n
	}
	if !compacted {
		t.Fatal("4000 upserts never compacted the campaigns log")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := gBytes.Value(); got != base {
		t.Fatalf("gauge after Close = %.0f, want its value before Open, %.0f", got, base)
	}
}

func TestConcurrentAppendsAndQueries(t *testing.T) {
	s := openSmall(t, t.TempDir())
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("conc-%d", w%2) // two goroutines share each campaign
			for i := 0; i < 100; i++ {
				if err := s.Append(storetest.Episode(name, w*100+i)); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if _, err := s.Episodes(name); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Stats(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, name := range []string{"conc-0", "conc-1"} {
		eps, err := s.Episodes(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(eps) != 200 {
			t.Errorf("%s: %d episodes, want 200", name, len(eps))
		}
	}
}

// TestConcurrentPutCampaignAndStats: Stats reads the campaigns log's
// length while PutCampaign appends to it; run it under -race.
func TestConcurrentPutCampaignAndStats(t *testing.T) {
	s := openSmall(t, t.TempDir())
	defer s.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := s.PutCampaign(results.NewCampaign("c", "DS-2", 1, true, int64(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := s.Stats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestCloseAfterRollReopensOnNextSegment: a Close right after a roll
// leaves the new, empty segment on disk, so a reopen appends there and
// the sealed segment stays untouched. A store an older writer closed
// the same way, with an .idx but no .seg for the next segment, still
// opens; read-only loads leave the orphan .idx, a writer removes it.
func TestCloseAfterRollReopensOnNextSegment(t *testing.T) {
	const name = "roll"
	dir := t.TempDir()
	genDir := filepath.Join(dir, shardsDir, escapeName(name), genName(0))
	fill := func() {
		s, err := Open(dir, WithSegmentBytes(900))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // the fourth append crosses 900 bytes and rolls
			if err := s.Append(storetest.Episode(name, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	sealed, err := os.ReadFile(filepath.Join(genDir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, orphans, err := listSegs(genDir); err != nil || len(orphans) != 0 {
		t.Fatalf("Close left index files without segments: %v (%v)", orphans, err)
	}

	s, err := Open(dir, WithSegmentBytes(900))
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[name]
	if len(sh.sealed) != 1 || sh.active.seq != 1 || sh.active.n != 0 || sh.active.bytes != 0 {
		t.Fatalf("reopened shard: %d sealed, active seq %d with %d records (%d B); want 1 sealed and an empty seq 1",
			len(sh.sealed), sh.active.seq, sh.active.n, sh.active.bytes)
	}
	if err := s.Append(storetest.Episode(name, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(filepath.Join(genDir, segName(0))); err != nil || string(raw) != string(sealed) {
		t.Fatalf("sealed segment changed on the next append (%d -> %d B, %v)", len(sealed), len(raw), err)
	}
	next, err := os.ReadFile(filepath.Join(genDir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var ep results.EpisodeRecord
	if err := json.Unmarshal(next, &ep); err != nil || ep.Index != 4 {
		t.Fatalf("segment 1 holds %q, want episode 4 alone", next)
	}

	// The older writer's layout: segment 0 sealed, an .idx for a
	// segment 1 that was never created.
	dir = t.TempDir()
	genDir = filepath.Join(dir, shardsDir, escapeName(name), genName(0))
	fill()
	if err := os.Remove(filepath.Join(genDir, segName(1))); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(genDir, idxName(1))
	ro, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if eps, err := ro.Episodes(name); err != nil || len(eps) != 4 {
		t.Fatalf("read-only load: %d episodes (%v), want 4", len(eps), err)
	}
	ro.Close()
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("read-only load touched the orphan index: %v", err)
	}
	s, err = Open(dir, WithSegmentBytes(900))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("writer open left the orphan index (stat: %v)", err)
	}
	if eps, err := s.Episodes(name); err != nil || len(eps) != 4 {
		t.Fatalf("writer open: %d episodes (%v), want 4", len(eps), err)
	}
}

// TestMigrateTornTailRule: migrate drops a torn final record under the
// readers' rule (results.ScanJSONL) even when a newline or blank lines
// follow it, and still refuses a torn record with a record after it.
func TestMigrateTornTailRule(t *testing.T) {
	for _, tc := range []struct {
		name, tail string
		ok         bool
	}{
		{"newline", "\n", true},
		{"blank lines", "\n  \n\n", true},
		{"record after", "\n" + `{"kind":"campaign","campaign":{"name":"late","v":1}}` + "\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := filepath.Join(t.TempDir(), "old.jsonl")
			fs, err := results.Open(src)
			if err != nil {
				t.Fatal(err)
			}
			storetest.Fill(t, fs, "m", 5)
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(src, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"kind":"episode","epis` + tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()
			old, loadErr := results.Load(src)
			dst := filepath.Join(t.TempDir(), "segdir")
			_, err = MigrateFromJSONL(src, dst, WithSegmentBytes(smallSeg))
			if !tc.ok {
				if err == nil || loadErr == nil {
					t.Fatalf("torn record before a record: migrate err %v, load err %v; want both to fail", err, loadErr)
				}
				return
			}
			if err != nil || loadErr != nil {
				t.Fatalf("migrate: %v; load: %v", err, loadErr)
			}
			seg, err := Load(dst)
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			diffs, err := results.Diff(old, seg)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != 1 || !reflect.DeepEqual(diffs[0].A, diffs[0].B) {
				t.Fatalf("migration changed the store: %+v", diffs)
			}
		})
	}
}
