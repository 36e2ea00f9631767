package results_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/results/storetest"
	"github.com/robotack/robotack/internal/runq"
	"github.com/robotack/robotack/internal/segstore"
)

// logCase is one of the four files results.Log writes, driven through
// its owner: records are numbered, and a state renders, comparably,
// every record the owner replays.
type logCase struct {
	name string
	file string // the log's path inside the owner's directory
	// open opens the writer on dir and returns the state it replayed,
	// an append of record i and the writer's close.
	open func(dir string) (state string, add func(i int) error, close func() error, err error)
	// load renders what a read-only replay of dir sees; nil for a log
	// without a read-only reader.
	load func(dir string) (string, error)
}

// opened returns a writer's state, append and close, closing the writer
// when its state could not be rendered.
func opened(state string, err error, add func(int) error, closeFn func() error) (string, func(int) error, func() error, error) {
	if err != nil {
		closeFn()
		return "", nil, nil, err
	}
	return state, add, closeFn, nil
}

// storeState renders a store's campaigns and campaign "c"'s episodes.
func storeState(s results.Store) (string, error) {
	recs, err := s.Campaigns()
	if err != nil {
		return "", err
	}
	eps, err := s.Episodes("c")
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal([]any{recs, eps})
	return string(raw), err
}

func loadSegstore(dir string) (string, error) {
	s, err := segstore.Load(dir)
	if err != nil {
		return "", err
	}
	defer s.Close()
	return storeState(s)
}

func logCases() []logCase {
	episode := func(i int) results.EpisodeRecord { return storetest.Episode("c", i) }
	return []logCase{{
		name: "FileStore",
		file: "store.jsonl",
		open: func(dir string) (string, func(int) error, func() error, error) {
			s, err := results.Open(filepath.Join(dir, "store.jsonl"))
			if err != nil {
				return "", nil, nil, err
			}
			st, err := storeState(s)
			return opened(st, err, func(i int) error { return s.Append(episode(i)) }, s.Close)
		},
		load: func(dir string) (string, error) {
			m, err := results.Load(filepath.Join(dir, "store.jsonl"))
			if err != nil {
				return "", err
			}
			return storeState(m)
		},
	}, {
		name: "journal",
		file: "queue.jsonl",
		open: func(dir string) (string, func(int) error, func() error, error) {
			q, err := runq.Open(dir)
			if err != nil {
				return "", nil, nil, err
			}
			var reqs []runq.Request
			for _, j := range q.Jobs() {
				reqs = append(reqs, j.Request)
			}
			raw, err := json.Marshal(reqs)
			return opened(string(raw), err, func(i int) error {
				_, err := q.Submit(runq.Request{Scenario: "DS-2", Mode: "smart", Name: fmt.Sprint("job-", i), Runs: 2, Seed: 300})
				return err
			}, func() error { return q.Shutdown(context.Background()) })
		},
	}, {
		name: "campaigns log",
		file: "campaigns.jsonl",
		open: func(dir string) (string, func(int) error, func() error, error) {
			s, err := segstore.Open(dir)
			if err != nil {
				return "", nil, nil, err
			}
			st, err := storeState(s)
			return opened(st, err, func(i int) error {
				return s.PutCampaign(results.NewCampaign(fmt.Sprint("camp-", i), "DS-2", 1, true, int64(i)))
			}, s.Close)
		},
		load: loadSegstore,
	}, {
		name: "segment",
		file: filepath.Join("c", "c", "g000000", "000000.seg"), // campaign "c"'s first segment
		open: func(dir string) (string, func(int) error, func() error, error) {
			s, err := segstore.Open(dir)
			if err != nil {
				return "", nil, nil, err
			}
			st, err := storeState(s)
			return opened(st, err, func(i int) error { return s.Append(episode(i)) }, s.Close)
		},
		load: loadSegstore,
	}}
}

// write opens c's writer on dir, appends records and closes it, and
// returns the state the open replayed.
func (c logCase) write(dir string, records ...int) (string, error) {
	st, add, closeFn, err := c.open(dir)
	if err != nil {
		return "", err
	}
	for _, i := range records {
		if err = add(i); err != nil {
			break
		}
	}
	return st, errors.Join(err, closeFn())
}

// state is the state c's writer replays from a log that was written
// the records and nothing else.
func (c logCase) state(t *testing.T, records ...int) string {
	t.Helper()
	dir := t.TempDir()
	_, err := c.write(dir, records...)
	if err == nil {
		var st string
		if st, err = c.write(dir); err == nil {
			return st
		}
	}
	t.Fatalf("%s: state of records %v: %v", c.name, records, err)
	return ""
}

// TestLogCutAtEveryOffset cuts each of the four logs inside its last
// record at every offset, from one byte in to just before its newline:
// the states a crash mid-append leaves. A read-only replay must leave
// the cut file byte-identical, and a writer reopen, one append and a
// second reopen must replay exactly the records the cut left plus the
// appended one. Cut just before its newline, the last record is whole:
// readers replay it, and the writer must end it before it appends.
func TestLogCutAtEveryOffset(t *testing.T) {
	for _, c := range logCases() {
		t.Run(c.name, func(t *testing.T) {
			template := t.TempDir()
			if _, err := c.write(template, 0, 1); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(template, c.file))
			if err != nil {
				t.Fatal(err)
			}
			torn := [2]string{c.state(t, 0), c.state(t, 0, 2)}
			whole := [2]string{c.state(t, 0, 1), c.state(t, 0, 1, 2)}
			start := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
			for cut := start + 1; cut < len(raw); cut++ {
				want := torn
				if cut == len(raw)-1 {
					want = whole
				}
				if err := c.checkCut(t.TempDir(), template, raw[:cut], want); err != nil {
					t.Fatalf("cut at %d of %d: %v", cut, len(raw), err)
				}
			}
		})
	}
}

// checkCut copies template to dir, cuts the log there to cut, and holds
// the replays to want: the state before the append, then after it.
func (c logCase) checkCut(dir, template string, cut []byte, want [2]string) error {
	path := filepath.Join(dir, c.file)
	if err := copyTree(template, dir); err != nil {
		return err
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		return err
	}
	if c.load != nil {
		st, err := c.load(dir)
		if err != nil {
			return fmt.Errorf("read-only load: %w", err)
		}
		if st != want[0] {
			return fmt.Errorf("read-only load replayed %s, want %s", st, want[0])
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, cut) {
			return fmt.Errorf("read-only load changed the file to %d bytes (%v)", len(raw), err)
		}
	}
	st, err := c.write(dir, 2)
	if err != nil {
		return fmt.Errorf("reopen and append: %w", err)
	}
	if st != want[0] {
		return fmt.Errorf("reopen replayed %s, want %s", st, want[0])
	}
	if st, err = c.write(dir); err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	if st != want[1] {
		return fmt.Errorf("second reopen replayed %s, want %s", st, want[1])
	}
	return nil
}

// copyTree copies the directories and regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
}
