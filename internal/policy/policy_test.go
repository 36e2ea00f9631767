package policy

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/stats"
)

// runTableII executes the full Table II battery with the given policy
// installed on every smart campaign, persisting into a fresh MemStore.
func runTableII(t *testing.T, pol core.TriggerPolicy, runs int, seed int64) *results.MemStore {
	t.Helper()
	store := results.NewMemStore()
	eng := engine.New(engine.WithWorkers(2))
	for _, c := range experiment.TableIICampaigns() {
		if c.Mode == core.ModeSmart {
			c.Policy = pol
		}
		if _, err := experiment.RunCampaignOn(eng, c, runs, seed, nil, experiment.WithSink(store)); err != nil {
			t.Fatalf("campaign %s: %v", c.Name, err)
		}
	}
	return store
}

// TestPaperTriggerBitIdentical holds the explicit default trigger, the
// trainer's generation 0, to smart mode without a policy: the Table II
// battery driven through core.DefaultSafetyHijackerConfig() as
// Config.Policy must be byte-identical, store record for store record,
// to the same battery with Policy == nil.
func TestPaperTriggerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II battery")
	}
	legacy := runTableII(t, nil, 6, 1000)
	viaPolicy := runTableII(t, core.DefaultSafetyHijackerConfig(), 6, 1000)

	diffs, err := results.Diff(legacy, viaPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		if d.RunsDelta != 0 || d.EBRateDelta != 0 || d.CrashRateDelta != 0 {
			t.Errorf("campaign %s drifted under the explicit default: %+v", d.Name, d)
		}
	}

	a, _ := legacy.Campaigns()
	b, _ := viaPolicy.Campaigns()
	ra, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ra) != string(rb) {
		t.Errorf("aggregates not byte-identical:\n%s\nvs\n%s", ra, rb)
	}
	for _, name := range legacy.EpisodeCampaigns() {
		ea, _ := legacy.Episodes(name)
		eb, _ := viaPolicy.Episodes(name)
		ja, _ := json.Marshal(ea)
		jb, _ := json.Marshal(eb)
		if string(ja) != string(jb) {
			t.Errorf("campaign %s: episode records not byte-identical", name)
		}
	}
}

// TestPaperTriggerFrameByFrame asserts the explicit default trigger
// reproduces smart mode's full episode outcome without a policy —
// launch frame, vector, K, and the per-frame DeltaTrace — on
// DS-1..DS-5.
func TestPaperTriggerFrameByFrame(t *testing.T) {
	pol := core.DefaultSafetyHijackerConfig()
	for _, id := range []scenario.ID{scenario.DS1, scenario.DS2, scenario.DS3, scenario.DS4, scenario.DS5} {
		for _, seed := range []int64{1, 77, 4242} {
			legacy, err := experiment.RunCtx(context.Background(), experiment.RunConfig{
				Scenario: id, Seed: seed,
				Attack: experiment.AttackSetup{Mode: core.ModeSmart},
			})
			if err != nil {
				t.Fatalf("%v seed %d: %v", id, seed, err)
			}
			viaPolicy, err := experiment.RunCtx(context.Background(), experiment.RunConfig{
				Scenario: id, Seed: seed,
				Attack: experiment.AttackSetup{Mode: core.ModeSmart, Policy: pol},
			})
			if err != nil {
				t.Fatalf("%v seed %d (policy): %v", id, seed, err)
			}
			if !reflect.DeepEqual(legacy, viaPolicy) {
				t.Errorf("%v seed %d: the explicit default's episode differs from the nil policy's:\npaper  %+v\npolicy %+v",
					id, seed, legacy, viaPolicy)
			}
		}
	}
}

// TestDefaultParamsMatchPaper: the search's generation-0 params, the
// default config, are the paper's trigger — evaluating them as a policy
// is bit-identical to smart mode without one, which is what lets the
// search start from the reproduction's behavior.
func TestDefaultParamsMatchPaper(t *testing.T) {
	pol := core.DefaultSafetyHijackerConfig()
	for _, id := range []scenario.ID{scenario.DS1, scenario.DS2, scenario.DS3} {
		legacy, err := experiment.RunCtx(context.Background(), experiment.RunConfig{
			Scenario: id, Seed: 1234,
			Attack: experiment.AttackSetup{Mode: core.ModeSmart},
		})
		if err != nil {
			t.Fatal(err)
		}
		viaParams, err := experiment.RunCtx(context.Background(), experiment.RunConfig{
			Scenario: id, Seed: 1234,
			Attack: experiment.AttackSetup{Mode: core.ModeSmart, Policy: pol},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, viaParams) {
			t.Errorf("%v: the default config as a policy differs from the nil policy", id)
		}
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	p := core.DefaultSafetyHijackerConfig()
	p.Gamma = 13.25
	p.SwapMasking = true
	p.Delay = 7
	a := &Artifact{
		V: Version, Kind: KindParam, Name: "trained",
		Params: &p, Seed: 42, Generations: 8, Fitness: 0.8125,
		TrainedOn: []string{"DS-1-search"},
	}
	raw, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Errorf("artifact does not round-trip exactly:\n%s\nvs\n%s", raw, raw2)
	}

	path := filepath.Join(t.TempDir(), "policy.json")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, loaded) {
		t.Errorf("Save/Load round-trip mismatch: %+v vs %+v", a, loaded)
	}
}

func TestArtifactErrors(t *testing.T) {
	params := core.DefaultSafetyHijackerConfig()
	bad := params
	bad.Gamma = 99
	cases := []struct {
		name string
		a    Artifact
		want string
	}{
		{"unknown kind", Artifact{V: 1, Kind: "bandit"}, `unknown policy kind "bandit" (have [paper param])`},
		{"newer version", Artifact{V: 99, Kind: KindParam, Params: &params}, "artifact version 99 is newer"},
		{"missing version", Artifact{Kind: KindPaper}, "no schema version"},
		{"param without params", Artifact{V: 1, Kind: KindParam}, `kind "param" requires params`},
		{"paper with params", Artifact{V: 1, Kind: KindPaper, Params: &params}, `kind "paper" takes no params`},
		{"out of bounds", Artifact{V: 1, Kind: KindParam, Params: &bad}, "param gamma = 99 outside [2, 30]"},
	}
	for _, tc := range cases {
		err := tc.a.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.a)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}

	for _, raw := range []string{
		`{"v":1,"kind":"paper","bogus":true}`,            // unknown field
		`{"v":1,"kind":"paper"}}`,                        // trailing brace
		`{"v":1,"kind":"paper"} garbage`,                 // trailing garbage
		`{"v":1,"kind":"paper"} {"v":99,"kind":"bogus"}`, // a second value
	} {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("Parse accepted %q", raw)
		}
	}
	if _, err := Parse([]byte("{\"v\":1,\"kind\":\"paper\"}\n\t ")); err != nil {
		t.Errorf("Parse rejected trailing whitespace: %v", err)
	}
}

func TestClampAndMutateStayInBounds(t *testing.T) {
	rng := stats.NewRNG(7)
	p := core.DefaultSafetyHijackerConfig()
	for i := 0; i < 200; i++ {
		p = mutate(p, 0.5, rng)
		if err := validate(p); err != nil {
			t.Fatalf("mutation %d left bounds: %v", i, err)
		}
	}
}

func TestPaperArtifactBuilds(t *testing.T) {
	a := Artifact{V: Version, Kind: KindPaper}
	pol, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg, ok := pol.(core.SafetyHijackerConfig); !ok || cfg != core.DefaultSafetyHijackerConfig() {
		t.Fatalf("paper artifact built %T %+v, want the default core.SafetyHijackerConfig", pol, pol)
	}
}

// FuzzPolicyParse: Parse never crashes, and whatever it accepts is one
// valid JSON value, builds, and re-marshals to canonical bytes that
// parse and marshal to the same bytes again. The seed corpus in
// testdata/fuzz/FuzzPolicyParse holds the paper artifact, a param
// artifact as robotack-search writes it, and malformed inputs: an
// unknown field and three kinds of trailing data.
func FuzzPolicyParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := Parse(raw)
		if err != nil {
			return
		}
		if !json.Valid(raw) {
			t.Fatalf("Parse accepted invalid JSON %q", raw)
		}
		if _, err := a.Build(); err != nil {
			t.Fatalf("accepted artifact %q does not build: %v", raw, err)
		}
		canon, err := a.Marshal()
		if err != nil {
			t.Fatalf("accepted artifact %q does not marshal: %v", raw, err)
		}
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not parse: %v", canon, err)
		}
		again, err := back.Marshal()
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical form %q re-marshals to %q (%v)", canon, again, err)
		}
	})
}
