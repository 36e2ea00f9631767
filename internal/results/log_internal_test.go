package results

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLogFailedCutBackIsSticky: when an append fails and cutting the
// file back to its clean length fails too, the file may end in torn
// bytes, so every later Append must fail instead of landing after
// them.
func TestLogFailedCutBackIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path, func(int, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	// A read-only descriptor fails both the write and the truncate.
	writable := l.f
	if l.f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("{}\n")); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	l.f.Close()
	l.f = writable
	if err := l.Append([]byte("{}\n")); err == nil {
		t.Fatal("append after a failed cut-back succeeded")
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "{}\n" {
		t.Fatalf("log holds %q (%v), want the one acknowledged record", raw, err)
	}
}
