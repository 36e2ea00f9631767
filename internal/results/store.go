package results

import (
	"fmt"
	"sort"
	"sync"
)

// Sink receives episode records as they complete. The experiment
// harness delivers records in submission (index) order, so a sink that
// appends sequentially — a JSONL file, an HTTP stream — produces a
// replayable log without its own reordering buffer.
type Sink interface {
	Append(EpisodeRecord) error
}

// Store is a durable collection of campaign and episode records with
// the operations every consumer needs: append episodes, upsert
// campaign aggregates, list campaigns, query one campaign's episodes,
// name the campaigns that have episodes, and report the store's size.
// Episodes are keyed by (campaign, index) — appending the same key
// again replaces the record, which is what lets an interrupted
// campaign re-append safely. Implementations are safe for concurrent
// use.
type Store interface {
	Sink
	// PutCampaign upserts a campaign's aggregate record.
	PutCampaign(CampaignRecord) error
	// Campaigns lists the stored campaign records sorted by name.
	Campaigns() ([]CampaignRecord, error)
	// Episodes returns one campaign's episode records sorted by index.
	// A campaign with no records yields an empty slice, not an error.
	Episodes(campaign string) ([]EpisodeRecord, error)
	// EpisodeCampaigns lists, sorted, the campaigns that have episode
	// records, whether or not an aggregate was stored (an interrupted
	// run has none).
	EpisodeCampaigns() []string
	StatsProvider
}

// DurableStore is a Store with an on-disk lifecycle: flushable and
// closable. Both persistent backends (the JSONL FileStore and the
// segmented segstore) implement it; binaries that accept either hold
// this interface.
type DurableStore interface {
	Store
	Sync() error
	Close() error
}

// Store format names reported by Stats and used by the CLI layer's
// autodetection.
const (
	FormatMem      = "mem"
	FormatJSONL    = "jsonl"
	FormatSegstore = "segstore"
)

// StoreStats is a cheap, lock-bounded snapshot of a store's size:
// what campaignd's GET /stores reports and what parity tests compare
// across backends. Counts are exact unless Estimated is set (a
// segmented store whose metadata cannot prove episode distinctness
// reports an upper bound until robotack-store compact rewrites it).
type StoreStats struct {
	Format    string `json:"format"`
	Path      string `json:"path,omitempty"`
	Campaigns int    `json:"campaigns"`
	Episodes  int    `json:"episodes"`
	// BytesEstimate approximates the store's resident (mem) or
	// on-disk (file/segstore) footprint.
	BytesEstimate int64 `json:"bytes_estimate"`
	Estimated     bool  `json:"estimated,omitempty"`
}

// StatsProvider reports a store's size: GET /stores and
// robotack-store stats read it.
type StatsProvider interface {
	Stats() (StoreStats, error)
}

// tooNew rejects a record of a newer schema than this build reads.
func tooNew(kind string, v int) error {
	if v > Version {
		return fmt.Errorf("results: %s record v%d is newer than supported v%d", kind, v, Version)
	}
	return nil
}

// episodeSizeEstimate approximates one record's resident footprint:
// the struct itself plus string backing. Computed outside store locks
// so Append's critical section stays map-ops only.
func episodeSizeEstimate(ep *EpisodeRecord) int64 {
	return int64(200 + len(ep.Campaign) + len(ep.Scenario))
}

// campaignSizeEstimate approximates an aggregate's footprint including
// its per-episode slices.
func campaignSizeEstimate(c *CampaignRecord) int64 {
	return int64(160+len(c.Name)+len(c.Scenario)) +
		8*int64(len(c.Ks)+len(c.KPrimes)+len(c.MinDeltas)+len(c.Predicted)+len(c.Realized)) +
		int64(len(c.Successes))
}

// MemStore is the in-memory Store: the test double, the cache layer,
// and the aggregation scratchpad for Diff.
type MemStore struct {
	mu        sync.RWMutex
	episodes  map[string]map[int]EpisodeRecord
	campaigns map[string]CampaignRecord
	nEpisodes int
	bytes     int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		episodes:  make(map[string]map[int]EpisodeRecord),
		campaigns: make(map[string]CampaignRecord),
	}
}

// Append implements Sink. Records from a newer schema are rejected.
// Validation and size accounting happen before the lock is taken; the
// critical section is the map insert and two counter updates.
func (s *MemStore) Append(ep EpisodeRecord) error {
	if err := tooNew("episode", ep.V); err != nil {
		return err
	}
	est := episodeSizeEstimate(&ep)
	s.mu.Lock()
	defer s.mu.Unlock()
	byIdx := s.episodes[ep.Campaign]
	if byIdx == nil {
		byIdx = make(map[int]EpisodeRecord)
		s.episodes[ep.Campaign] = byIdx
	}
	if old, ok := byIdx[ep.Index]; ok {
		s.bytes -= episodeSizeEstimate(&old)
	} else {
		s.nEpisodes++
	}
	s.bytes += est
	byIdx[ep.Index] = ep
	return nil
}

// PutCampaign implements Store.
func (s *MemStore) PutCampaign(c CampaignRecord) error {
	if err := tooNew("campaign", c.V); err != nil {
		return err
	}
	est := campaignSizeEstimate(&c)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.campaigns[c.Name]; ok {
		s.bytes -= campaignSizeEstimate(&old)
	}
	s.bytes += est
	s.campaigns[c.Name] = c
	return nil
}

// Campaigns implements Store.
func (s *MemStore) Campaigns() ([]CampaignRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]CampaignRecord, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Episodes implements Store.
func (s *MemStore) Episodes(campaign string) ([]EpisodeRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	byIdx := s.episodes[campaign]
	out := make([]EpisodeRecord, 0, len(byIdx))
	for _, ep := range byIdx {
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

// EpisodeCampaigns implements Store.
func (s *MemStore) EpisodeCampaigns() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.episodes))
	for name := range s.episodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats implements Store. Counts are maintained incrementally
// on the write path, so this is O(1) under a read lock.
func (s *MemStore) Stats() (StoreStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StoreStats{
		Format:        FormatMem,
		Campaigns:     len(s.campaigns),
		Episodes:      s.nEpisodes,
		BytesEstimate: s.bytes,
	}, nil
}
