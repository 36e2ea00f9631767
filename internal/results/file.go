package results

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// line is the JSONL envelope: one self-describing record per line, so
// a store file is an append-only log that any language can stream.
type line struct {
	Kind     string          `json:"kind"`
	Episode  *EpisodeRecord  `json:"episode,omitempty"`
	Campaign *CampaignRecord `json:"campaign,omitempty"`
}

const (
	kindEpisode  = "episode"
	kindCampaign = "campaign"
)

// FileStore is the JSONL-backed Store: an append-only log on disk
// mirrored by an in-memory index for queries. Appends go straight to
// the file, so an interrupted campaign keeps every episode that
// completed; re-opening folds duplicate (campaign, index) keys and
// repeated campaign aggregates last-wins, exactly like a log replay.
// A torn final line — the state a kill -9 mid-append leaves — is
// dropped and truncated on open, so the next append starts on a clean
// line boundary (the same rule as runq's journal replay).
type FileStore struct {
	mu   sync.Mutex
	mem  *MemStore
	f    *os.File
	path string
}

// Open opens (creating if needed) a JSONL store for reading and
// appending. A torn final line is cut from the file.
func Open(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("results: open store: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("results: %s: %w", path, err)
	}
	mem, good, err := replayStore(raw, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if good < len(raw) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("results: %s: drop torn tail: %w", path, err)
		}
	}
	return &FileStore{mem: mem, f: f, path: path}, nil
}

// Load reads a JSONL store into memory without holding the file open —
// the read-only path used by diffs and the campaign service. A torn
// final line is tolerated and ignored (never truncated: the writer
// that owns the file does that on its next open).
func Load(path string) (*MemStore, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("results: load store: %w", err)
	}
	mem, _, err := replayStore(raw, path)
	return mem, err
}

// replayStore folds envelope lines into a fresh MemStore, returning
// the clean byte length per the ScanJSONL torn-tail rule.
func replayStore(raw []byte, path string) (*MemStore, int, error) {
	mem := NewMemStore()
	good, err := ScanJSONL(raw, func(lineno int, data []byte) error {
		var l line
		if err := json.Unmarshal(data, &l); err != nil {
			return fmt.Errorf("results: %s:%d: %w: %w", path, lineno, ErrMalformedLine, err)
		}
		switch {
		case l.Kind == kindEpisode && l.Episode != nil:
			if err := mem.Append(*l.Episode); err != nil {
				return fmt.Errorf("results: %s:%d: %w", path, lineno, err)
			}
		case l.Kind == kindCampaign && l.Campaign != nil:
			if err := mem.PutCampaign(*l.Campaign); err != nil {
				return fmt.Errorf("results: %s:%d: %w", path, lineno, err)
			}
		default:
			return fmt.Errorf("results: %s:%d: unknown record kind %q", path, lineno, l.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return mem, good, nil
}

func (s *FileStore) writeLine(l line) error {
	raw, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("results: encode record: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := s.f.Write(raw); err != nil {
		return fmt.Errorf("results: append to %s: %w", s.path, err)
	}
	return nil
}

// Append implements Sink: the episode is written to the log before it
// is visible to queries, so a crash never loses an acknowledged record.
func (s *FileStore) Append(ep EpisodeRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeLine(line{Kind: kindEpisode, Episode: &ep}); err != nil {
		return err
	}
	return s.mem.Append(ep)
}

// PutCampaign implements Store; upserts append a fresh line and the
// loader keeps the last one.
func (s *FileStore) PutCampaign(c CampaignRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeLine(line{Kind: kindCampaign, Campaign: &c}); err != nil {
		return err
	}
	return s.mem.PutCampaign(c)
}

// Campaigns implements Store.
func (s *FileStore) Campaigns() ([]CampaignRecord, error) { return s.mem.Campaigns() }

// Episodes implements Store.
func (s *FileStore) Episodes(campaign string) ([]EpisodeRecord, error) {
	return s.mem.Episodes(campaign)
}

// EpisodeCampaigns lists campaign names that have episode records.
func (s *FileStore) EpisodeCampaigns() []string { return s.mem.EpisodeCampaigns() }

// Stats implements StatsProvider: record counts from the in-memory
// mirror, bytes from the log file itself.
func (s *FileStore) Stats() (StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.mem.Stats()
	if err != nil {
		return StoreStats{}, err
	}
	st.Format = FormatJSONL
	st.Path = s.path
	if fi, err := s.f.Stat(); err == nil {
		st.BytesEstimate = fi.Size()
	}
	return st, nil
}

// Sync flushes the log to stable storage.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Close syncs and closes the underlying file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.f.Sync(), s.f.Close())
}
