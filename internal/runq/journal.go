package runq

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/robotack/robotack/internal/results"
)

// journalFile is the queue's on-disk log inside the queue directory.
const journalFile = "queue.jsonl"

// lockFileName is the queue directory's exclusivity lock. The lock
// lives on its own file — never renamed, held for the queue's whole
// lifetime — so journal compaction can atomically swap queue.jsonl
// underneath it without opening a double-server window.
const lockFileName = "queue.lock"

// compactTmpFile is the staging file for journal compaction.
const compactTmpFile = "queue.jsonl.tmp"

// journalLine is the JSONL envelope: one self-describing record per
// line. Every state transition appends the job's full snapshot, and
// replay keeps the last line per id — the same last-wins idiom as the
// results store, so the journal is crash-safe by construction: a torn
// process leaves a valid prefix (plus at most one partial final line,
// which replay drops and truncates) and the previous state of every
// job.
type journalLine struct {
	Kind string `json:"kind"`
	Job  *Job   `json:"job,omitempty"`
}

const kindJob = "job"

// openJournal opens (creating if needed) dir/queue.jsonl for append,
// takes an exclusive lock on dir/queue.lock so two server processes
// cannot share one queue dir, and replays the log into a job map. The
// returned lock file must stay open for the queue's lifetime.
func openJournal(dir string) (journal, lock *os.File, jobs map[int]*Job, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("runq: create queue dir: %w", err)
	}
	lockPath := filepath.Join(dir, lockFileName)
	lock, err = os.OpenFile(lockPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("runq: open lock: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, nil, nil, fmt.Errorf("runq: %s: %w", lockPath, err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, nil, nil, fmt.Errorf("runq: open journal: %w", err)
	}
	fail := func(err error) (*os.File, *os.File, map[int]*Job, error) {
		f.Close()
		lock.Close()
		return nil, nil, nil, err
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		return fail(fmt.Errorf("runq: %s: %w", path, err))
	}
	jobs, good, err := replay(raw, path)
	if err != nil {
		return fail(err)
	}
	if good < len(raw) {
		// A torn final line from a crash mid-append: cut it so the
		// next append starts on a clean line boundary instead of
		// concatenating onto garbage.
		if err := f.Truncate(int64(good)); err != nil {
			return fail(fmt.Errorf("runq: %s: drop torn tail: %w", path, err))
		}
	}
	return f, lock, jobs, nil
}

// compactJournal rewrites the journal to its last-wins state: one
// snapshot line per job, in id order. The replacement is staged in a
// temp file and renamed over queue.jsonl, so a crash at any point
// leaves either the old journal or the complete compacted one — never
// a partial state. The caller's directory lock (queue.lock) is
// untouched by the swap. Returns the reopened journal handle.
func compactJournal(dir string, old *os.File, jobs map[int]*Job) (*os.File, error) {
	path := filepath.Join(dir, journalFile)
	tmpPath := filepath.Join(dir, compactTmpFile)
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return nil, fmt.Errorf("runq: compact: %w", err)
	}
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := appendJob(tmp, jobs[id]); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return nil, fmt.Errorf("runq: compact: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, fmt.Errorf("runq: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return nil, fmt.Errorf("runq: compact: %w", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return nil, fmt.Errorf("runq: compact: %w", err)
	}
	old.Close() // the old inode is gone from the directory
	nf, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runq: compact: reopen journal: %w", err)
	}
	return nf, nil
}

// replay folds the journal bytes last-wins into a job map, returning
// how many leading bytes parsed cleanly, under results.ScanJSONL's
// torn-tail rule: an unparsable final line — the disk state a kill -9
// mid-append leaves — is tolerated and excluded from the good length;
// corruption anywhere earlier is an error, because silently skipping it
// could resurrect stale states.
func replay(raw []byte, path string) (map[int]*Job, int, error) {
	jobs := make(map[int]*Job)
	good, err := results.ScanJSONL(raw, func(lineno int, line []byte) error {
		var l journalLine
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("runq: %s:%d: %w: %w", path, lineno, results.ErrMalformedLine, err)
		}
		if l.Kind != kindJob || l.Job == nil {
			return fmt.Errorf("runq: %s:%d: unknown record kind %q", path, lineno, l.Kind)
		}
		j := *l.Job
		jobs[j.ID] = &j
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return jobs, good, nil
}

// appendJob writes one job snapshot to the journal (no-op when the
// queue is memory-only).
func appendJob(f *os.File, j *Job) error {
	if f == nil {
		return nil
	}
	raw, err := json.Marshal(journalLine{Kind: kindJob, Job: j})
	if err != nil {
		return fmt.Errorf("runq: encode job %d: %w", j.ID, err)
	}
	raw = append(raw, '\n')
	if _, err := f.Write(raw); err != nil {
		return fmt.Errorf("runq: journal job %d: %w", j.ID, err)
	}
	return nil
}
