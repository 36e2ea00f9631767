package results_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/results/storetest"
)

func TestMemStoreSuite(t *testing.T) {
	storetest.Run(t, func(t *testing.T) results.Store { return results.NewMemStore() })
}

func openFileStore(t *testing.T, dir string) results.DurableStore {
	t.Helper()
	s, err := results.Open(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corruptFileStore simulates a kill -9 mid-append: a half-written,
// newline-less record at the end of the log.
func corruptFileStore(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "store.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"kind":"episode","episode":{"campaign":"torn","ind`); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreSuite(t *testing.T) {
	storetest.Run(t, func(t *testing.T) results.Store {
		return openFileStore(t, t.TempDir())
	})
	storetest.RunDurable(t, openFileStore, corruptFileStore)
}

// TestFileStoreTruncatesTornTail pins the writer-side contract beyond
// what the suite observes: the torn bytes are physically cut from the
// file on open, not merely skipped.
func TestFileStoreTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir)
	storetest.Fill(t, s, "torn", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "store.jsonl")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	clean := fi.Size()
	corruptFileStore(t, dir)
	s = openFileStore(t, dir)
	defer s.Close()
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != clean {
		t.Errorf("file is %d bytes after reopen, want %d (torn tail truncated)", fi.Size(), clean)
	}
}

func TestMemStoreStats(t *testing.T) {
	s := results.NewMemStore()
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != results.FormatMem || st.Campaigns != 0 || st.Episodes != 0 || st.BytesEstimate != 0 {
		t.Fatalf("empty store stats = %+v", st)
	}
	storetest.Fill(t, s, "a", 4)
	storetest.Fill(t, s, "b", 2)
	// Replacing an episode must not double-count.
	if err := s.Append(storetest.Episode("a", 1)); err != nil {
		t.Fatal(err)
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Campaigns != 2 || st.Episodes != 6 {
		t.Fatalf("stats = %+v, want 2 campaigns / 6 episodes", st)
	}
	if st.BytesEstimate <= 0 || st.Estimated {
		t.Fatalf("stats = %+v, want positive exact bytes estimate", st)
	}
}

func TestFileStoreStats(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir)
	defer s.Close()
	storetest.Fill(t, s.(*results.FileStore), "a", 3)
	st, err := s.(*results.FileStore).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != results.FormatJSONL || st.Campaigns != 1 || st.Episodes != 3 {
		t.Fatalf("stats = %+v", st)
	}
	fi, err := os.Stat(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesEstimate != fi.Size() {
		t.Errorf("bytes estimate %d != file size %d", st.BytesEstimate, fi.Size())
	}
}

// TestFileStoreRejectsNewerSchemaUnwritten: a record of a newer schema
// is rejected before it reaches the log, so the next open, which would
// refuse it, still succeeds.
func TestFileStoreRejectsNewerSchemaUnwritten(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir)
	ep := storetest.Episode("new", 0)
	ep.V = results.Version + 1
	c := results.NewCampaign("new", "DS-2", 1, true, 0)
	c.V = results.Version + 1
	if s.Append(ep) == nil || s.PutCampaign(c) == nil {
		t.Fatal("a newer-schema record was accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openFileStore(t, dir)
	defer s.Close()
	if st, err := s.Stats(); err != nil || st.Campaigns != 0 || st.Episodes != 0 || st.BytesEstimate != 0 {
		t.Fatalf("store after rejected records: %+v (%v), want empty", st, err)
	}
}
