package policy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
)

func searchCfg(store results.Store, log *bytes.Buffer) TrainerConfig {
	return TrainerConfig{
		Battery: []experiment.Campaign{{
			Name:          "DS-1-search",
			Scenario:      scenario.DS1,
			Mode:          core.ModeSmart,
			ExpectCrashes: true,
		}},
		Runs:        4,
		Generations: 2,
		Population:  3,
		BaseSeed:    99,
		Store:       store,
		Log:         log,
	}
}

// TestTrainDeterministic: two searches from the same config produce
// byte-identical artifacts and byte-identical search logs.
func TestTrainDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		var log bytes.Buffer
		eng := engine.New(engine.WithWorkers(3))
		res, err := Train(eng, searchCfg(nil, &log))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.Artifact.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw, log.Bytes()
	}
	a1, l1 := run()
	a2, l2 := run()
	if !bytes.Equal(a1, a2) {
		t.Errorf("artifacts differ across identical searches:\n%s\nvs\n%s", a1, a2)
	}
	if !bytes.Equal(l1, l2) {
		t.Errorf("search logs differ across identical searches:\n%s\nvs\n%s", l1, l2)
	}
}

// countingStore counts fresh episode appends: a fully resumed search
// folds stored records and never appends a new one.
type countingStore struct {
	*results.MemStore
	appends int
}

func (s *countingStore) Append(ep results.EpisodeRecord) error {
	s.appends++
	return s.MemStore.Append(ep)
}

// TestTrainResume: a second search over a store already holding every
// evaluation folds the persisted episodes instead of re-running them,
// and lands on the same artifact.
func TestTrainResume(t *testing.T) {
	store := &countingStore{MemStore: results.NewMemStore()}
	var log1 bytes.Buffer
	res1, err := Train(engine.New(engine.WithWorkers(2)), searchCfg(store, &log1))
	if err != nil {
		t.Fatal(err)
	}
	if store.appends == 0 {
		t.Fatal("first search persisted no episodes")
	}

	store.appends = 0
	var log2 bytes.Buffer
	res2, err := Train(engine.New(engine.WithWorkers(2)), searchCfg(store, &log2))
	if err != nil {
		t.Fatal(err)
	}
	if store.appends != 0 {
		t.Errorf("resumed search re-executed %d episodes; want 0", store.appends)
	}
	a1, _ := res1.Artifact.Marshal()
	a2, _ := res2.Artifact.Marshal()
	if !bytes.Equal(a1, a2) {
		t.Errorf("resumed search artifact differs:\n%s\nvs\n%s", a1, a2)
	}
	if !bytes.Equal(log1.Bytes(), log2.Bytes()) {
		t.Error("resumed search log differs from the original")
	}
}

// TestTrainRejectsBadBattery covers the config gates.
func TestTrainRejectsBadBattery(t *testing.T) {
	eng := engine.New()
	if _, err := Train(eng, TrainerConfig{}); err == nil {
		t.Error("empty battery accepted")
	}
	cfg := TrainerConfig{Battery: []experiment.Campaign{{
		Name: "golden", Scenario: scenario.DS1, Mode: 0,
	}}}
	if _, err := Train(eng, cfg); err == nil {
		t.Error("non-smart battery campaign accepted")
	}
}

// TestTrainScoresGenerationOnOneSeed: every candidate of a generation
// is scored on the same episodes, so the elite is chosen on a
// like-for-like comparison rather than on its own luckier seeds. In the
// search log, each generation's candidate lines carry one seed, and no
// two generations share one.
func TestTrainScoresGenerationOnOneSeed(t *testing.T) {
	var log bytes.Buffer
	cfg := searchCfg(nil, &log)
	if _, err := Train(engine.New(engine.WithWorkers(2)), cfg); err != nil {
		t.Fatal(err)
	}
	seeds := map[int][]int64{} // per generation, one seed per candidate line
	for _, line := range bytes.Split(bytes.TrimSpace(log.Bytes()), []byte("\n")) {
		var l struct {
			Gen  int   `json:"gen"`
			Cand *int  `json:"cand"`
			Seed int64 `json:"seed"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if l.Cand != nil { // not the generation's elite line
			seeds[l.Gen] = append(seeds[l.Gen], l.Seed)
		}
	}
	if len(seeds) != cfg.Generations {
		t.Fatalf("log holds candidates of %d generations, want %d", len(seeds), cfg.Generations)
	}
	genOf := map[int64]int{}
	for gen, s := range seeds {
		if len(s) != cfg.Population {
			t.Errorf("generation %d: %d candidate lines, want %d", gen, len(s), cfg.Population)
		}
		for _, seed := range s {
			if seed != s[0] {
				t.Errorf("generation %d scored its candidates on seeds %v, want one", gen, s)
				break
			}
		}
		if prev, dup := genOf[s[0]]; dup {
			t.Errorf("generations %d and %d share seed %d", prev, gen, s[0])
		}
		genOf[s[0]] = gen
	}
}

// TestSeedDerivationDistinct: evaluation seeds differ across
// generations, and no mutation seed equals another mutation seed or any
// evaluation seed, across a realistic search envelope.
func TestSeedDerivationDistinct(t *testing.T) {
	seen := map[int64]string{}
	add := func(s int64, what string) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %s vs %s -> %d", what, prev, s)
		}
		seen[s] = what
	}
	for gen := 0; gen < 20; gen++ {
		add(EvalSeed(7, gen), fmt.Sprintf("evaluation of gen %d", gen))
		for cand := 0; cand < 32; cand++ {
			add(mutationSeed(7, gen, cand), fmt.Sprintf("mutation (%d,%d)", gen, cand))
		}
	}
}
