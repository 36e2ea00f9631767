package results

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Log is the one writer of an append-only JSONL file: runq's journal,
// the FileStore, and segstore's campaigns log and active segments all
// append through it, and it owns the three tail rules they share:
//
//   - a torn final record, the state a kill -9 mid-append leaves, is
//     cut when a writer opens the file (ScanJSONL's torn-tail rule);
//   - a final record that parses but lacks its newline gets one when a
//     writer opens the file, so the next append does not glue onto it;
//   - an append whose write fails part-way (ENOSPC, EFBIG) is cut back
//     to the clean length, and if that cut fails too, every later
//     Append fails rather than land after the torn bytes.
//
// A read-only replay (ReplayLog) repairs nothing. A Log is not safe for
// concurrent use: each caller appends under its own lock.
type Log struct {
	f    *os.File
	path string
	size int64 // clean length: whole, newline-terminated records
	err  error // set once a failed append could not be cut back
}

// OpenLog opens path for appending, creating it if needed, replays its
// records through ScanJSONL with replay, and repairs its tail. Errors
// from replay are returned as they are.
func OpenLog(path string, replay func(lineno int, line []byte) error) (*Log, error) {
	l, err := OpenLogAt(path, 0)
	if err != nil {
		return nil, err
	}
	if err := l.repair(replay); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// OpenLogAt opens path for appending, creating it if needed, at a clean
// length size that the caller has already established (from an index
// or an earlier scan), without reading the file.
func OpenLogAt(path string, size int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("results: open %s: %w", path, err)
	}
	return &Log{f: f, path: path, size: size}, nil
}

// ReplayLog replays path's records through ScanJSONL with replay and
// returns the clean length, repairing nothing: the read-only path,
// safe beside the file's writer. A torn final record is skipped.
func ReplayLog(path string, replay func(lineno int, line []byte) error) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("results: %w", err)
	}
	good, err := ScanJSONL(raw, replay)
	return int64(good), err
}

func (l *Log) repair(replay func(lineno int, line []byte) error) error {
	raw, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("results: read %s: %w", l.path, err)
	}
	good, err := ScanJSONL(raw, replay)
	if err != nil {
		return err
	}
	l.size = int64(good)
	switch {
	case good < len(raw):
		if err := l.f.Truncate(l.size); err != nil {
			return fmt.Errorf("results: %s: cut torn tail: %w", l.path, err)
		}
	case good > 0 && raw[good-1] != '\n':
		return l.Append([]byte{'\n'})
	}
	return nil
}

// Append writes line, one encoded record ending in '\n', with one
// write. A write that fails is cut back to the clean length.
func (l *Log) Append(line []byte) error {
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(line); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("results: %s: cut back failed append: %w", l.path, errors.Join(err, terr))
			return l.err
		}
		return fmt.Errorf("results: append to %s: %w", l.path, err)
	}
	l.size += int64(len(line))
	return nil
}

// Rewrite replaces the file with data, whole records only, through
// WriteFileAtomic, and reopens it for appending: a crash leaves either
// the old file or the new one.
func (l *Log) Rewrite(data []byte) error {
	if l.err != nil {
		return l.err
	}
	if err := WriteFileAtomic(l.path, data); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The old descriptor now appends to an unlinked file.
		l.err = fmt.Errorf("results: reopen %s: %w", l.path, err)
		return l.err
	}
	l.f.Close()
	l.f, l.size = f, int64(len(data))
	return nil
}

// Size returns the clean length: the bytes of whole records written.
func (l *Log) Size() int64 { return l.size }

// Sync flushes the file to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close flushes the file to stable storage and closes it.
func (l *Log) Close() error { return errors.Join(l.f.Sync(), l.f.Close()) }
