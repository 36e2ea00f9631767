package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
)

// expectedJSON holds the outputs the benchmark must reproduce at the
// default seed and sizes. Every run reports the same fields for its own
// inputs (report.Outputs), so a deliberate change of outputs is
// committed by copying a default-seed report's outputs here.
//
//go:embed expected.json
var expectedJSON []byte

var committed = func() expectations {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("bench: expected.json: %v", err))
	}
	return e
}()

// expectations are a run's checked outputs.
type expectations struct {
	// Digests maps workload → campaign → SHA-256 of the first Table II
	// round's results.CampaignRecord JSON.
	Digests map[string]map[string]string `json:"digests,omitempty"`
	// Oracles maps workload → the first training's per-vector outcome.
	Oracles map[string][]oracleOutcome `json:"oracles,omitempty"`
}

// oracleOutcome is what one vector's training produced.
type oracleOutcome struct {
	Vector  string  `json:"vector"`
	Samples int     `json:"samples"`
	ValMAE  float64 `json:"val_mae"`
}

func outcomes(infos []experiment.TrainedOracle) []oracleOutcome {
	out := make([]oracleOutcome, len(infos))
	for i, in := range infos {
		out[i] = oracleOutcome{Vector: in.Vector.String(), Samples: in.Samples, ValMAE: in.Result.ValMAE}
	}
	return out
}

// recordJSON is the canonical byte form of an aggregate: two aggregates
// are field-identical exactly when these bytes are equal.
func recordJSON(rec results.CampaignRecord) []byte {
	raw, err := json.Marshal(rec)
	if err != nil {
		panic(err) // records hold only finite numbers (experiment.RecordEpisode)
	}
	return raw
}

func digest(rec results.CampaignRecord) string {
	sum := sha256.Sum256(recordJSON(rec))
	return hex.EncodeToString(sum[:])
}
