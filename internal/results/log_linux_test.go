package results_test

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestLogShortWriteCutBack: an append whose write fails part-way must
// leave none of its bytes behind, so the next append, and every replay
// after it, holds exactly the acknowledged records. The test lowers the
// process's file size limit (RLIMIT_FSIZE) around one append of each
// log: the write stores the bytes up to the limit and fails with EFBIG,
// which tears a record the way ENOSPC on a full disk does.
func TestLogShortWriteCutBack(t *testing.T) {
	for _, c := range logCases() {
		t.Run(c.name, func(t *testing.T) {
			want := c.state(t, 0, 2)
			dir := t.TempDir()
			_, add, closeFn, err := c.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := add(0); err != nil {
				closeFn()
				t.Fatal(err)
			}
			fi, err := os.Stat(filepath.Join(dir, c.file))
			if err == nil {
				err = shortWrite(fi.Size()+20, func() {
					if add(1) == nil {
						t.Error("an append past the file size limit succeeded")
					}
				})
			}
			if err == nil {
				err = add(2)
			}
			if cerr := closeFn(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if st, err := c.write(dir); err != nil || st != want {
				t.Fatalf("reopen replayed %s (%v), want %s", st, err, want)
			}
			if c.load == nil {
				return
			}
			if st, err := c.load(dir); err != nil || st != want {
				t.Fatalf("read-only load replayed %s (%v), want %s", st, err, want)
			}
		})
	}
}

// shortWrite runs fn with the process's file size limit lowered to
// limit bytes, and restores it after. The limit holds for the whole
// process, so fn must make only the write meant to fail, and no test
// of this package runs in parallel.
func shortWrite(limit int64, fn func()) (err error) {
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		return err
	}
	low := old
	low.Cur = uint64(limit)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		return err
	}
	// Restored even when fn ends its test with t.Fatal.
	defer func() {
		if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err == nil {
			err = rerr
		}
	}()
	fn()
	return nil
}
