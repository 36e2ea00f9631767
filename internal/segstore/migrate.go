package segstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/robotack/robotack/internal/results"
)

// MigrateFromJSONL streams a FileStore log into a fresh segstore
// directory — the one-shot `robotack-store migrate` path. Records
// stream line by line (a million-episode log never loads whole);
// episodes append in file order, so a log whose episodes were written
// in index order (the normal case) lands directly on the sorted fast
// path. The destination must be empty or nonexistent: migration never
// merges into live data. A torn final line in the source is tolerated
// under the readers' rule (results.ScanJSONL).
func MigrateFromJSONL(src, dst string, opts ...Option) (migrated results.StoreStats, err error) {
	fi, statErr := os.Stat(dst)
	if statErr == nil && fi.IsDir() {
		entries, err := os.ReadDir(dst)
		if err != nil {
			return results.StoreStats{}, fmt.Errorf("segstore: migrate: %w", err)
		}
		if len(entries) > 0 {
			return results.StoreStats{}, fmt.Errorf("segstore: migrate: destination %s is not empty", dst)
		}
	} else if statErr == nil {
		return results.StoreStats{}, fmt.Errorf("segstore: migrate: destination %s exists and is not a directory", dst)
	}
	f, err := os.Open(src)
	if err != nil {
		return results.StoreStats{}, fmt.Errorf("segstore: migrate: %w", err)
	}
	defer f.Close()

	store, err := Open(dst, opts...)
	if err != nil {
		return results.StoreStats{}, err
	}
	defer func() {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// The source streams line by line under results.ScanJSONL's
	// torn-tail rule: a line that does not parse is dropped only when
	// nothing but blank lines follows it, so it is held until the next
	// non-blank line or the end of the file decides.
	r := bufio.NewReaderSize(f, 1<<20)
	var torn error
	for lineno := 1; ; lineno++ {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return results.StoreStats{}, fmt.Errorf("segstore: migrate: read %s: %w", src, rerr)
		}
		if len(bytes.TrimSpace(line)) > 0 {
			if torn != nil {
				return results.StoreStats{}, torn
			}
			ep, c, err := results.ParseStoreLine(line)
			switch {
			case err != nil:
			case ep != nil:
				err = store.Append(*ep)
			default:
				err = store.PutCampaign(*c)
			}
			if err != nil {
				err = fmt.Errorf("segstore: migrate: %s:%d: %w", src, lineno, err)
				if !errors.Is(err, results.ErrMalformedLine) {
					return results.StoreStats{}, err
				}
				torn = err
			}
		}
		if rerr != nil {
			break
		}
	}
	if err := store.Sync(); err != nil {
		return results.StoreStats{}, err
	}
	return store.Stats()
}
