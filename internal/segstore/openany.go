package segstore

import (
	"fmt"
	"os"
	"strings"

	"github.com/robotack/robotack/internal/results"
)

// Format autodetection for the CLI layer: every binary that accepts a
// results-store path (-store, -out, store diff/stats) routes
// through OpenAny/LoadAny so operators never spell the backend out. It
// lives here rather than in results because results cannot import its
// own backends.
//
// The rules, in order:
//   - an existing directory      → segstore
//   - an existing regular file   → JSONL FileStore
//   - a missing path ending in ".jsonl" → new FileStore
//   - a missing path otherwise   → new segstore
//
// DetectFormat applies them without opening anything.
func DetectFormat(path string) (string, error) {
	fi, err := os.Stat(path)
	switch {
	case err == nil && fi.IsDir():
		return results.FormatSegstore, nil
	case err == nil:
		return results.FormatJSONL, nil
	case os.IsNotExist(err):
		if strings.HasSuffix(path, ".jsonl") {
			return results.FormatJSONL, nil
		}
		return results.FormatSegstore, nil
	default:
		return "", fmt.Errorf("segstore: stat %s: %w", path, err)
	}
}

// OpenAny opens a store for reading and appending in whichever format
// the path holds (or, for a new path, implies).
func OpenAny(path string, opts ...Option) (results.DurableStore, error) {
	format, err := DetectFormat(path)
	if err != nil {
		return nil, err
	}
	if format == results.FormatSegstore {
		return Open(path, opts...)
	}
	return results.Open(path)
}

// LoadAny opens a store read-only — the diff/compare path, safe to
// point at a store another process is writing.
func LoadAny(path string, opts ...Option) (results.Store, error) {
	format, err := DetectFormat(path)
	if err != nil {
		return nil, err
	}
	if format == results.FormatSegstore {
		return Load(path, opts...)
	}
	return results.Load(path)
}
