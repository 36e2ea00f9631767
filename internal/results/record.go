// Package results makes campaign outcomes a first-class, durable API.
// The paper's evaluation (Table II, Figs. 5-8) compares hundreds of
// episodes per campaign; instead of aggregating in memory and
// discarding everything after one print, every episode folds into a
// typed, versioned EpisodeRecord and every campaign into a
// CampaignRecord, both of which round-trip through JSON. Records
// stream into a Sink as episodes complete (in submission order), land
// in a Store (JSONL file or in-memory), and later stages — reports,
// diffs between code versions, resumed campaigns, the HTTP campaign
// service — consume the stored records instead of live results.
package results

import (
	"sort"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// Version is the schema version stamped on every record. Readers
// reject records from a newer schema instead of misinterpreting them.
const Version = 1

// EpisodeRecord is the persistent form of one episode's outcome: the
// identity that reproduces it (campaign, index, seed, scenario, mode)
// plus everything the Table II / Fig. 6-8 aggregates consume. It is
// the unit the JSONL stores append and the resume path folds back.
type EpisodeRecord struct {
	V        int       `json:"v"`
	Campaign string    `json:"campaign"`
	Index    int       `json:"index"`
	Seed     int64     `json:"seed"`
	Scenario string    `json:"scenario"`
	Mode     core.Mode `json:"mode"`
	// ExpectCrashes mirrors the campaign's crash-eligibility, so an
	// interrupted campaign's aggregate can be rebuilt from episodes
	// alone without inventing crash counts for Move_In-style campaigns.
	ExpectCrashes bool `json:"expect_crashes,omitempty"`

	Launched    bool        `json:"launched"`
	LaunchFrame int         `json:"launch_frame,omitempty"`
	Vector      core.Vector `json:"vector,omitempty"`
	TargetClass sim.Class   `json:"target_class,omitempty"`
	K           int         `json:"k,omitempty"`
	KPrime      int         `json:"k_prime,omitempty"`

	EB      bool `json:"eb"`
	Crashed bool `json:"crashed"`

	MinDelta       float64 `json:"min_delta"`
	DeltaAtLaunch  float64 `json:"delta_at_launch,omitempty"`
	PredictedDelta float64 `json:"predicted_delta,omitempty"`
	RealizedDelta  float64 `json:"realized_delta,omitempty"`

	Frames int `json:"frames"`
}

// CampaignRecord is the persistent aggregate of one campaign: its
// identity (name, scenario, mode, base seed) and the fold of its
// episode records. Folding is pure — the same episodes in index order
// produce the same record bit for bit — which is what makes resumed
// campaigns indistinguishable from uninterrupted ones.
type CampaignRecord struct {
	V             int       `json:"v"`
	Name          string    `json:"name"`
	Scenario      string    `json:"scenario"`
	Mode          core.Mode `json:"mode"`
	ExpectCrashes bool      `json:"expect_crashes"`
	BaseSeed      int64     `json:"base_seed"`

	Runs     int `json:"runs"`
	Launched int `json:"launched"`
	EBs      int `json:"ebs"`
	Crashes  int `json:"crashes"`

	// Per-target-class launch/success counts (launched episodes only),
	// recorded so summaries classify by what the malware actually
	// attacked rather than by campaign-name conventions.
	PedLaunched int `json:"ped_launched"`
	PedEBs      int `json:"ped_ebs"`
	VehLaunched int `json:"veh_launched"`
	VehEBs      int `json:"veh_ebs"`

	Ks        []float64 `json:"ks,omitempty"`
	KPrimes   []float64 `json:"k_primes,omitempty"`
	MinDeltas []float64 `json:"min_deltas,omitempty"`
	Predicted []float64 `json:"predicted,omitempty"`
	Realized  []float64 `json:"realized,omitempty"`
	Successes []bool    `json:"successes,omitempty"`
}

// NewCampaign starts an empty aggregate for a campaign.
func NewCampaign(name, scenario string, mode core.Mode, expectCrashes bool, baseSeed int64) CampaignRecord {
	return CampaignRecord{
		V:             Version,
		Name:          name,
		Scenario:      scenario,
		Mode:          mode,
		ExpectCrashes: expectCrashes,
		BaseSeed:      baseSeed,
	}
}

// Fold adds one episode to the aggregate. Episodes must be folded in
// index order for the slice-valued fields to be reproducible.
func (c *CampaignRecord) Fold(ep EpisodeRecord) {
	c.Runs++
	if ep.Launched {
		c.Launched++
		c.Ks = append(c.Ks, float64(ep.K))
		if ep.KPrime > 0 {
			c.KPrimes = append(c.KPrimes, float64(ep.KPrime))
		}
		c.MinDeltas = append(c.MinDeltas, ep.MinDelta)
		if c.Mode == core.ModeSmart {
			c.Predicted = append(c.Predicted, ep.PredictedDelta)
			c.Realized = append(c.Realized, ep.RealizedDelta)
			c.Successes = append(c.Successes, ep.EB || ep.Crashed)
		}
		switch ep.TargetClass {
		case sim.ClassPedestrian:
			c.PedLaunched++
			if ep.EB {
				c.PedEBs++
			}
		case sim.ClassVehicle:
			c.VehLaunched++
			if ep.EB {
				c.VehEBs++
			}
		}
	}
	if ep.EB {
		c.EBs++
	}
	if ep.Crashed && c.ExpectCrashes {
		c.Crashes++
	}
}

// Aggregate folds episodes into a fresh copy of the meta record's
// identity, sorting by index first so the result does not depend on
// storage order.
func Aggregate(meta CampaignRecord, episodes []EpisodeRecord) CampaignRecord {
	out := NewCampaign(meta.Name, meta.Scenario, meta.Mode, meta.ExpectCrashes, meta.BaseSeed)
	sorted := append([]EpisodeRecord(nil), episodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for _, ep := range sorted {
		out.Fold(ep)
	}
	return out
}

// EBRate returns the emergency-braking fraction.
func (c *CampaignRecord) EBRate() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.EBs) / float64(c.Runs)
}

// CrashRate returns the accident fraction.
func (c *CampaignRecord) CrashRate() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.Crashes) / float64(c.Runs)
}

// MedianK returns the median attack duration in frames.
func (c *CampaignRecord) MedianK() float64 { return stats.Median(c.Ks) }
