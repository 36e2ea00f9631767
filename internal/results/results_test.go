package results

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/sim"
)

func sampleEpisode(campaign string, idx int) EpisodeRecord {
	return EpisodeRecord{
		V:              Version,
		Campaign:       campaign,
		Index:          idx,
		Seed:           1000 + int64(idx),
		Scenario:       "DS-2",
		Mode:           core.ModeSmart,
		ExpectCrashes:  true,
		Launched:       true,
		LaunchFrame:    40 + idx,
		Vector:         core.VectorDisappear,
		TargetClass:    sim.ClassPedestrian,
		K:              14,
		KPrime:         5,
		EB:             idx%2 == 0,
		Crashed:        idx%3 == 0,
		MinDelta:       0.1 + 0.2, // deliberately non-representable exactly in binary
		DeltaAtLaunch:  25.5,
		PredictedDelta: 3.25,
		RealizedDelta:  3.75,
		Frames:         450,
	}
}

func TestEpisodeRecordJSONRoundTrip(t *testing.T) {
	in := sampleEpisode("rt", 3)
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out EpisodeRecord
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the record:\n in %+v\nout %+v", in, out)
	}
}

func TestCampaignRecordJSONRoundTrip(t *testing.T) {
	in := NewCampaign("rt", "DS-2", core.ModeSmart, true, 77)
	for i := 0; i < 5; i++ {
		in.Fold(sampleEpisode("rt", i))
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out CampaignRecord
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the record:\n in %+v\nout %+v", in, out)
	}
}

func TestFoldMatchesAggregateRegardlessOfOrder(t *testing.T) {
	meta := NewCampaign("agg", "DS-2", core.ModeSmart, true, 1)
	var eps []EpisodeRecord
	inOrder := meta
	for i := 0; i < 8; i++ {
		ep := sampleEpisode("agg", i)
		eps = append(eps, ep)
		inOrder.Fold(ep)
	}
	// Shuffle deterministically: reversed plus a swap.
	shuffled := []EpisodeRecord{eps[7], eps[2], eps[5], eps[0], eps[3], eps[6], eps[1], eps[4]}
	if got := Aggregate(meta, shuffled); !reflect.DeepEqual(got, inOrder) {
		t.Errorf("Aggregate differs from in-order fold:\n got %+v\nwant %+v", got, inOrder)
	}
}

func TestFoldClassifiesByTargetClass(t *testing.T) {
	rec := NewCampaign("cls", "gen", core.ModeSmart, true, 1)
	ped := sampleEpisode("cls", 0) // pedestrian, EB
	veh := sampleEpisode("cls", 1) // veh, no EB
	veh.TargetClass = sim.ClassVehicle
	idle := sampleEpisode("cls", 2) // never launched: no class bucket
	idle.Launched = false
	idle.EB = false
	for _, ep := range []EpisodeRecord{ped, veh, idle} {
		rec.Fold(ep)
	}
	if rec.PedLaunched != 1 || rec.PedEBs != 1 {
		t.Errorf("ped counts = %d/%d, want 1/1", rec.PedEBs, rec.PedLaunched)
	}
	if rec.VehLaunched != 1 || rec.VehEBs != 0 {
		t.Errorf("veh counts = %d/%d, want 0/1", rec.VehEBs, rec.VehLaunched)
	}
}

func TestMemStoreAppendListQuery(t *testing.T) {
	s := NewMemStore()
	for i := 0; i < 3; i++ {
		if err := s.Append(sampleEpisode("b", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(sampleEpisode("a", 0)); err != nil {
		t.Fatal(err)
	}
	// Re-appending the same (campaign, index) replaces the record.
	dup := sampleEpisode("b", 1)
	dup.Frames = 999
	if err := s.Append(dup); err != nil {
		t.Fatal(err)
	}

	eps, err := s.Episodes("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 3 || eps[0].Index != 0 || eps[1].Index != 1 || eps[2].Index != 2 {
		t.Fatalf("episodes = %+v, want indices 0,1,2", eps)
	}
	if eps[1].Frames != 999 {
		t.Errorf("duplicate append did not replace: frames = %d", eps[1].Frames)
	}
	if eps, _ := s.Episodes("missing"); len(eps) != 0 {
		t.Errorf("missing campaign returned %d episodes", len(eps))
	}

	if err := s.PutCampaign(NewCampaign("b", "DS-2", core.ModeSmart, true, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(NewCampaign("a", "DS-1", core.ModeRandom, true, 1)); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "a" || recs[1].Name != "b" {
		t.Fatalf("campaigns = %+v, want a,b", recs)
	}
	if got := s.EpisodeCampaigns(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("episode campaigns = %v", got)
	}
}

func TestStoreRejectsNewerSchema(t *testing.T) {
	s := NewMemStore()
	ep := sampleEpisode("v", 0)
	ep.V = Version + 1
	if err := s.Append(ep); err == nil {
		t.Error("newer-schema episode accepted")
	}
	c := NewCampaign("v", "DS-1", core.ModeSmart, true, 1)
	c.V = Version + 1
	if err := s.PutCampaign(c); err == nil {
		t.Error("newer-schema campaign accepted")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	fs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := fs.Append(sampleEpisode("file", i)); err != nil {
			t.Fatal(err)
		}
	}
	agg := Aggregate(NewCampaign("file", "DS-2", core.ModeSmart, true, 9), mustEpisodes(t, fs, "file"))
	if err := fs.PutCampaign(agg); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload read-only and compare contents.
	mem, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEpisodes(t, mem, "file"); !reflect.DeepEqual(got, mustEpisodes(t, fs, "file")) {
		t.Errorf("reloaded episodes differ: %+v", got)
	}
	recs, err := mem.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], agg) {
		t.Errorf("reloaded campaign = %+v, want %+v", recs, agg)
	}

	// Re-open read-write and append more: the log keeps growing.
	fs2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if err := fs2.Append(sampleEpisode("file", 4)); err != nil {
		t.Fatal(err)
	}
	if got := mustEpisodes(t, fs2, "file"); len(got) != 5 {
		t.Errorf("after reopen+append: %d episodes, want 5", len(got))
	}
}

func mustEpisodes(t *testing.T, s Store, name string) []EpisodeRecord {
	t.Helper()
	eps, err := s.Episodes(name)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte(`{"kind":"nonsense"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Errorf("err = %v, want unknown record kind", err)
	}
}

func TestAggregateForRespectsEpisodeCrashEligibility(t *testing.T) {
	// A Move_In-style campaign (ExpectCrashes=false) interrupted before
	// its aggregate landed must not grow invented crash counts when
	// rebuilt from episodes.
	s := NewMemStore()
	ep := sampleEpisode("movein", 0)
	ep.ExpectCrashes = false
	ep.Crashed = true
	if err := s.Append(ep); err != nil {
		t.Fatal(err)
	}
	rec, err := AggregateFor(s, "movein")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.ExpectCrashes || rec.Crashes != 0 {
		t.Errorf("re-aggregated record = %+v, want ExpectCrashes=false and 0 crashes", rec)
	}
	// A stored aggregate, when present, wins over recomputation.
	stored := NewCampaign("movein", "DS-3", core.ModeSmart, false, 7)
	stored.Runs = 99
	if err := s.PutCampaign(stored); err != nil {
		t.Fatal(err)
	}
	rec, err = AggregateFor(s, "movein")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Runs != 99 {
		t.Errorf("stored aggregate not preferred: %+v", rec)
	}
	if rec, err := AggregateFor(s, "missing"); err != nil || rec != nil {
		t.Errorf("missing campaign: rec=%v err=%v, want nil/nil", rec, err)
	}
}

func TestDiffAcrossStores(t *testing.T) {
	a, b := NewMemStore(), NewMemStore()
	ca := NewCampaign("shared", "DS-2", core.ModeSmart, true, 1)
	ca.Runs, ca.EBs, ca.Crashes = 10, 5, 2
	cb := ca
	cb.Runs, cb.EBs, cb.Crashes = 10, 8, 1
	if err := a.PutCampaign(ca); err != nil {
		t.Fatal(err)
	}
	if err := b.PutCampaign(cb); err != nil {
		t.Fatal(err)
	}
	// b also holds an interrupted campaign: episodes only, no aggregate.
	if err := b.Append(sampleEpisode("only-b", 0)); err != nil {
		t.Fatal(err)
	}

	diffs, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("diffs = %+v, want 2 entries", diffs)
	}
	if diffs[0].Name != "only-b" || diffs[0].A != nil || diffs[0].B == nil {
		t.Errorf("only-b diff = %+v", diffs[0])
	}
	if diffs[0].B.Runs != 1 {
		t.Errorf("only-b aggregate not recomputed from episodes: %+v", diffs[0].B)
	}
	d := diffs[1]
	if d.Name != "shared" {
		t.Fatalf("diff order wrong: %+v", diffs)
	}
	if got, want := d.EBRateDelta, 0.3; !approxEqual(got, want) {
		t.Errorf("EB delta = %v, want %v", got, want)
	}
	if got, want := d.CrashRateDelta, -0.1; !approxEqual(got, want) {
		t.Errorf("crash delta = %v, want %v", got, want)
	}
	out := FormatDiff(diffs)
	if !strings.Contains(out, "shared") || !strings.Contains(out, "+30.0%") {
		t.Errorf("FormatDiff output malformed:\n%s", out)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// TestFileStoreConcurrentAppend proves the JSONL store is safe for
// concurrent Append from multiple in-flight runs — the run queue
// sinks several campaigns into one store at once. Run under -race;
// the replay also catches interleaved (torn) lines, which would fail
// to parse.
func TestFileStoreConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "concurrent.jsonl")
	fs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}

	const (
		campaigns = 8
		episodes  = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, campaigns)
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("camp-%d", c)
			for i := 0; i < episodes; i++ {
				ep := sampleEpisode(name, i)
				if err := fs.Append(ep); err != nil {
					errs <- err
					return
				}
			}
			agg := NewCampaign(name, "DS-2", core.ModeSmart, true, int64(c))
			if err := fs.PutCampaign(agg); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the log: every line must parse and every record survive.
	mem, err := Load(path)
	if err != nil {
		t.Fatalf("reloading the concurrently written store: %v", err)
	}
	recs, err := mem.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != campaigns {
		t.Fatalf("replayed %d campaign aggregates, want %d", len(recs), campaigns)
	}
	for c := 0; c < campaigns; c++ {
		eps, err := mem.Episodes(fmt.Sprintf("camp-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		if len(eps) != episodes {
			t.Errorf("camp-%d replayed %d episodes, want %d", c, len(eps), episodes)
		}
	}
}

// TestLockDir: a second lock on a locked directory fails until the
// first lock file is closed.
func TestLockDir(t *testing.T) {
	dir := t.TempDir()
	a, err := LockDir(dir, "x.lock")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := LockDir(dir, "x.lock"); err == nil {
		b.Close()
		t.Fatal("second LockDir on a locked directory succeeded")
	}
	a.Close()
	b, err := LockDir(dir, "x.lock")
	if err != nil {
		t.Fatalf("lock not released on close: %v", err)
	}
	b.Close()
}

// TestWriteFileAtomic: the file is replaced whole and the staging file
// does not outlive the call.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, want := range []string{"first\n", "second, longer\n", ""} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("staging file left behind: %v", err)
		}
	}
	if err := WriteFileAtomic(filepath.Join(path, "under-a-file"), nil); err == nil {
		t.Error("write under a regular file succeeded")
	}
}
