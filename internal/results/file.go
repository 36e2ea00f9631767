package results

import (
	"encoding/json"
	"fmt"
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

// StoreLine encodes ep, or c when ep is nil, as one line of the
// FileStore format, newline included, for Log.Append. segstore's
// campaigns log holds the same lines.
func StoreLine(ep *EpisodeRecord, c *CampaignRecord) ([]byte, error) {
	l := line{Kind: kindCampaign, Campaign: c}
	if ep != nil {
		l = line{Kind: kindEpisode, Episode: ep}
	}
	raw, err := json.Marshal(l)
	if err != nil {
		return nil, fmt.Errorf("results: encode record: %w", err)
	}
	return append(raw, '\n'), nil
}

// ParseStoreLine decodes one line of the FileStore format into its one
// record: an episode or a campaign, the other nil. A line that is not
// JSON fails with ErrMalformedLine, so ScanJSONL's torn-tail rule
// applies to it; an unknown kind does not.
func ParseStoreLine(data []byte) (*EpisodeRecord, *CampaignRecord, error) {
	var l line
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrMalformedLine, err)
	}
	switch {
	case l.Kind == kindEpisode && l.Episode != nil:
		return l.Episode, nil, nil
	case l.Kind == kindCampaign && l.Campaign != nil:
		return nil, l.Campaign, nil
	}
	return nil, nil, fmt.Errorf("unknown record kind %q", l.Kind)
}

// FileStore is the JSONL-backed Store: an append-only Log on disk
// mirrored by an in-memory index for queries. Appends go straight to
// the file, so an interrupted campaign keeps every episode that
// completed; re-opening folds duplicate (campaign, index) keys and
// repeated campaign aggregates last-wins, exactly like a log replay.
// The Log repairs the tail a crash or a failed append leaves.
type FileStore struct {
	mu   sync.Mutex
	mem  *MemStore
	log  *Log
	path string
}

// Open opens (creating if needed) a JSONL store for reading and
// appending. A torn final line is cut from the file.
func Open(path string) (*FileStore, error) {
	mem := NewMemStore()
	log, err := OpenLog(path, replayInto(mem, path))
	if err != nil {
		return nil, err
	}
	return &FileStore{mem: mem, log: log, path: path}, nil
}

// Load reads a JSONL store into memory without holding the file open —
// the read-only path used by diffs and the campaign service. A torn
// final line is tolerated and ignored (never truncated: the writer
// that owns the file does that on its next open).
func Load(path string) (*MemStore, error) {
	mem := NewMemStore()
	if _, err := ReplayLog(path, replayInto(mem, path)); err != nil {
		return nil, err
	}
	return mem, nil
}

// replayInto folds FileStore lines into mem, last-wins.
func replayInto(mem *MemStore, path string) func(lineno int, data []byte) error {
	return func(lineno int, data []byte) error {
		ep, c, err := ParseStoreLine(data)
		switch {
		case err != nil:
		case ep != nil:
			err = mem.Append(*ep)
		default:
			err = mem.PutCampaign(*c)
		}
		if err != nil {
			return fmt.Errorf("results: %s:%d: %w", path, lineno, err)
		}
		return nil
	}
}

// Append implements Sink: the episode is written to the log before it
// is visible to queries, so a crash never loses an acknowledged record.
func (s *FileStore) Append(ep EpisodeRecord) error {
	if err := tooNew("episode", ep.V); err != nil {
		return err
	}
	raw, err := StoreLine(&ep, nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(raw); err != nil {
		return err
	}
	return s.mem.Append(ep)
}

// PutCampaign implements Store; upserts append a fresh line and the
// loader keeps the last one.
func (s *FileStore) PutCampaign(c CampaignRecord) error {
	if err := tooNew("campaign", c.V); err != nil {
		return err
	}
	raw, err := StoreLine(nil, &c)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(raw); err != nil {
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

// EpisodeCampaigns implements Store.
func (s *FileStore) EpisodeCampaigns() []string { return s.mem.EpisodeCampaigns() }

// Stats implements Store: record counts from the in-memory mirror,
// bytes from the log.
func (s *FileStore) Stats() (StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.mem.Stats()
	if err != nil {
		return StoreStats{}, err
	}
	st.Format = FormatJSONL
	st.Path = s.path
	st.BytesEstimate = s.log.Size()
	return st, nil
}

// Sync flushes the log to stable storage.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Sync()
}

// Close syncs and closes the underlying file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
