package results

import (
	"fmt"
	"os"
	"path/filepath"
)

// LockDir takes an exclusive, non-blocking lock on the file dir/name,
// creating it if needed, and returns the open lock file; closing it
// releases the lock. Two writers on one directory would interleave
// their appends, so the second fails fast instead. The lock file is
// never renamed, so rewrites beside it (journal compaction, generation
// swaps) happen underneath the lock, and the lock dies with the file
// descriptor, so a kill -9 never leaves a stale one behind. Where flock
// is unavailable the lock is a no-op and single-writer discipline is
// the operator's responsibility.
func LockDir(dir, name string) (*os.File, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open lock: %w", err)
	}
	if err := flock(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: directory is locked by another process: %w", path, err)
	}
	return f, nil
}

// WriteFileAtomic replaces path with data: it stages the bytes in
// path+".tmp", fsyncs and closes it, and renames it over path, so a
// crash at any point leaves either the old file or the complete new
// one.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("results: stage %s: %w", filepath.Base(path), err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("results: stage %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("results: install %s: %w", filepath.Base(path), err)
	}
	return nil
}
