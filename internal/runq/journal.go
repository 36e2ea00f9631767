package runq

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/robotack/robotack/internal/results"
)

// journalFile is the queue's on-disk log inside the queue directory.
const journalFile = "queue.jsonl"

// lockFileName is the queue directory's exclusivity lock
// (results.LockDir): two robotack-serve processes on one -queue-dir
// would double-execute jobs and interleave journal writers. The lock
// lives on its own file — never renamed, held for the queue's whole
// lifetime — so journal compaction can atomically swap queue.jsonl
// underneath it without opening a double-server window.
const lockFileName = "queue.lock"

// journalLine is the JSONL envelope: one self-describing record per
// line. Every state transition appends the job's full snapshot, and
// replay keeps the last line per id — the same last-wins idiom as the
// results store, so the journal is crash-safe by construction: a torn
// process leaves a valid prefix (plus at most one partial final line,
// which results.Log cuts on the next open) and the previous state of
// every job.
type journalLine struct {
	Kind string `json:"kind"`
	Job  *Job   `json:"job,omitempty"`
}

const kindJob = "job"

// openJournal opens (creating if needed) dir/queue.jsonl for append,
// takes an exclusive lock on dir/queue.lock so two server processes
// cannot share one queue dir, and replays the log into a job map. The
// returned lock file must stay open for the queue's lifetime.
func openJournal(dir string) (journal *results.Log, lock *os.File, jobs map[int]*Job, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("runq: create queue dir: %w", err)
	}
	lock, err = results.LockDir(dir, lockFileName)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("runq: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	jobs = make(map[int]*Job)
	journal, err = results.OpenLog(path, func(lineno int, line []byte) error {
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
		lock.Close()
		return nil, nil, nil, err
	}
	return journal, lock, jobs, nil
}

// compactJournal rewrites the journal to its last-wins state: one
// snapshot line per job, in id order. results.Log.Rewrite stages the
// replacement and renames it over queue.jsonl, so a crash at any point
// leaves either the old journal or the complete compacted one — never
// a partial state. The caller's directory lock (queue.lock) is
// untouched by the swap.
func compactJournal(journal *results.Log, jobs map[int]*Job) error {
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var buf []byte
	for _, id := range ids {
		line, err := encodeJob(jobs[id])
		if err != nil {
			return fmt.Errorf("runq: compact: %w", err)
		}
		buf = append(buf, line...)
	}
	if err := journal.Rewrite(buf); err != nil {
		return fmt.Errorf("runq: compact: %w", err)
	}
	return nil
}

// encodeJob renders one job snapshot as a journal line.
func encodeJob(j *Job) ([]byte, error) {
	raw, err := json.Marshal(journalLine{Kind: kindJob, Job: j})
	if err != nil {
		return nil, fmt.Errorf("runq: encode job %d: %w", j.ID, err)
	}
	return append(raw, '\n'), nil
}

// appendJob writes one job snapshot to the journal (no-op when the
// queue is memory-only).
func appendJob(journal *results.Log, j *Job) error {
	if journal == nil {
		return nil
	}
	raw, err := encodeJob(j)
	if err != nil {
		return err
	}
	if err := journal.Append(raw); err != nil {
		return fmt.Errorf("runq: journal job %d: %w", j.ID, err)
	}
	return nil
}
