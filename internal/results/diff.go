package results

import (
	"fmt"
	"sort"
	"strings"
)

// CampaignDiff compares one campaign's aggregate across two stores (or
// two campaigns directly): the EB / crash-rate movement between code
// versions is the headline number of a cross-version sweep.
type CampaignDiff struct {
	Name string `json:"name"`
	// A and B are the aggregates being compared; nil when the campaign
	// is absent from that side.
	A *CampaignRecord `json:"a,omitempty"`
	B *CampaignRecord `json:"b,omitempty"`
	// Deltas are B minus A (zero when either side is absent).
	RunsDelta      int     `json:"runs_delta"`
	EBRateDelta    float64 `json:"eb_rate_delta"`
	CrashRateDelta float64 `json:"crash_rate_delta"`
}

// DiffRecords compares two aggregates directly.
func DiffRecords(name string, a, b *CampaignRecord) CampaignDiff {
	d := CampaignDiff{Name: name, A: a, B: b}
	if a != nil && b != nil {
		d.RunsDelta = b.Runs - a.Runs
		d.EBRateDelta = b.EBRate() - a.EBRate()
		d.CrashRateDelta = b.CrashRate() - a.CrashRate()
	}
	return d
}

// Aggregator is the optional Store extension for rebuilding a
// campaign's aggregate from its episode records; segstore implements
// it. Implementations must produce exactly
// Aggregate(identity-of-lowest-index-episode, Episodes(name)) and nil
// when no episodes exist.
type Aggregator interface {
	AggregateEpisodes(name string) (*CampaignRecord, error)
}

// aggregateEpisodes rebuilds a campaign's aggregate purely from its
// episode records (the interrupted-campaign fallback). The identity
// fields — mode, scenario, crash eligibility — come from the episodes
// themselves. Returns nil when no episodes exist.
func aggregateEpisodes(s Store, name string) (*CampaignRecord, error) {
	if ag, ok := s.(Aggregator); ok {
		return ag.AggregateEpisodes(name)
	}
	eps, err := s.Episodes(name)
	if err != nil {
		return nil, err
	}
	if len(eps) == 0 {
		return nil, nil
	}
	meta := NewCampaign(name, eps[0].Scenario, eps[0].Mode, eps[0].ExpectCrashes, 0)
	rec := Aggregate(meta, eps)
	return &rec, nil
}

// AggregateFor returns the campaign's stored aggregate, recomputing it
// from episode records when only those were persisted (an interrupted
// run). Returns nil when the store has neither.
func AggregateFor(s Store, name string) (*CampaignRecord, error) {
	recs, err := s.Campaigns()
	if err != nil {
		return nil, err
	}
	for i := range recs {
		if recs[i].Name == name {
			return &recs[i], nil
		}
	}
	return aggregateEpisodes(s, name)
}

// Diff compares every campaign present in either store, sorted by
// name. Campaigns lacking a stored aggregate (interrupted runs) are
// re-aggregated from their episode records.
func Diff(a, b Store) ([]CampaignDiff, error) {
	names := map[string]bool{}
	byName := make([]map[string]*CampaignRecord, 2)
	for i, s := range []Store{a, b} {
		recs, err := s.Campaigns()
		if err != nil {
			return nil, err
		}
		byName[i] = make(map[string]*CampaignRecord, len(recs))
		for j := range recs {
			names[recs[j].Name] = true
			byName[i][recs[j].Name] = &recs[j]
		}
		for _, n := range s.EpisodeCampaigns() {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	out := make([]CampaignDiff, 0, len(sorted))
	for _, n := range sorted {
		ra, rb := byName[0][n], byName[1][n]
		var err error
		if ra == nil {
			if ra, err = aggregateEpisodes(a, n); err != nil {
				return nil, err
			}
		}
		if rb == nil {
			if rb, err = aggregateEpisodes(b, n); err != nil {
				return nil, err
			}
		}
		out = append(out, DiffRecords(n, ra, rb))
	}
	return out, nil
}

// FormatDiff renders a diff as a fixed-width table.
func FormatDiff(diffs []CampaignDiff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %10s %12s\n", "campaign", "EB a→b", "crash a→b", "ΔEB", "Δcrash")
	side := func(r *CampaignRecord, rate func(*CampaignRecord) float64) string {
		if r == nil {
			return "—"
		}
		return fmt.Sprintf("%.1f%%", 100*rate(r))
	}
	for _, d := range diffs {
		fmt.Fprintf(&b, "%-28s %6s→%-6s %6s→%-6s", d.Name,
			side(d.A, (*CampaignRecord).EBRate), side(d.B, (*CampaignRecord).EBRate),
			side(d.A, (*CampaignRecord).CrashRate), side(d.B, (*CampaignRecord).CrashRate))
		fmt.Fprintf(&b, " %+9.1f%% %+11.1f%%\n", 100*d.EBRateDelta, 100*d.CrashRateDelta)
	}
	return b.String()
}
