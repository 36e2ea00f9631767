package segstore

// Open-time and query-latency benchmarks backing the tentpole claim:
// segstore's open cost tracks index size, not record count, so growing
// a store 100× leaves open time (and single-campaign reads) flat while
// the JSONL FileStore's open grows linearly. CI runs these and asserts
// the flatness ratio (see .github/workflows/ci.yml) and benchguard
// budgets (BENCH_after.json).
//
// Store fixtures are built once per process per size and reused across
// repetitions; TestMain removes them.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/results"
)

var (
	benchMu   sync.Mutex
	benchRoot string
	benchDirs = map[string]string{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if benchRoot != "" {
		os.RemoveAll(benchRoot)
	}
	os.Exit(code)
}

func benchEpisode(campaign string, idx int) results.EpisodeRecord {
	return results.EpisodeRecord{
		V:        results.Version,
		Campaign: campaign,
		Index:    idx,
		Seed:     int64(idx),
		Scenario: "DS-2",
		Mode:     core.ModeSmart,
		Launched: true,
		K:        14,
		EB:       idx%2 == 0,
		MinDelta: float64(idx) * 0.25,
		Frames:   450,
	}
}

// benchFixture builds (once per process) a store of n episodes spread
// round-robin over a fixed set of campaigns (so 100× more episodes
// means 100× more records and segments per shard, not 100× more
// shards), plus one fixed-size "hot" campaign — the query target that
// must stay cheap as the store grows around it.
func benchFixture(b *testing.B, kind string, n int) string {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s-%d", kind, n)
	if dir, ok := benchDirs[key]; ok {
		return dir
	}
	if benchRoot == "" {
		root, err := os.MkdirTemp("", "segstore-bench-")
		if err != nil {
			b.Fatal(err)
		}
		benchRoot = root
	}
	var store results.DurableStore
	var path string
	switch kind {
	case "seg":
		path = filepath.Join(benchRoot, key)
		s, err := Open(path, WithSegmentBytes(1<<20))
		if err != nil {
			b.Fatal(err)
		}
		store = s
	case "jsonl":
		path = filepath.Join(benchRoot, key+".jsonl")
		s, err := results.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		store = s
	default:
		b.Fatalf("unknown fixture kind %q", kind)
	}
	const hotSize = 100
	const fillCampaigns = 20
	for i := 0; i < hotSize && i < n; i++ {
		if err := store.Append(benchEpisode("hot", i)); err != nil {
			b.Fatal(err)
		}
	}
	for i := hotSize; i < n; i++ {
		campaign := fmt.Sprintf("fill-%02d", i%fillCampaigns)
		if err := store.Append(benchEpisode(campaign, i/fillCampaigns)); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	benchDirs[key] = path
	return path
}

var benchSizes = []int{2000, 200000}

// BenchmarkSegstoreOpen measures a writer open (lock, campaigns log,
// per-segment index headers and close caches — no record parsing). The
// acceptance bar: n=200000 within 2× of n=2000.
func BenchmarkSegstoreOpen(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dir := benchFixture(b, "seg", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, WithSegmentBytes(1<<20))
				if err != nil {
					b.Fatal(err)
				}
				if st := s.OpenStats(); st.ScannedBytes != 0 {
					b.Fatalf("open scanned %d raw bytes; fixture not cleanly closed", st.ScannedBytes)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFileStoreOpen is the baseline being displaced: the JSONL
// store re-parses every record on open, so this grows linearly with n.
func BenchmarkFileStoreOpen(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			path := benchFixture(b, "jsonl", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := results.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkEpisodesIndexed measures querying one fixed-size campaign
// while the store around it grows 100×: only the hot shard's segments
// are read, so latency should not follow n.
func BenchmarkEpisodesIndexed(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dir := benchFixture(b, "seg", n)
			s, err := Open(dir, WithSegmentBytes(1<<20))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eps, err := s.Episodes("hot")
				if err != nil {
					b.Fatal(err)
				}
				if len(eps) != 100 {
					b.Fatalf("hot campaign has %d episodes, want 100", len(eps))
				}
			}
			b.StopTimer()
			s.Close()
		})
	}
}
