package runq

import (
	"fmt"
	"strings"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/policy"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
)

// Request describes one campaign run to queue: what to run (exactly
// one of a built-in scenario name, an inline declarative spec, or
// procedural-generator parameters), the attack mode, and the batch
// shape. Requests are journaled verbatim, so an inline spec survives a
// restart without any server-side state.
type Request struct {
	// Scenario names a spec in the built-in catalog ("DS-1".."DS-5");
	// scenario.Named checks it.
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline declarative scenario, compiled per episode.
	Spec *scenegen.Spec `json:"spec,omitempty"`
	// Generate samples a fresh procedural scenario per episode from
	// the given space; zero-valued fields fall back to the defaults,
	// so {} sweeps the full default space.
	Generate *scenegen.Space `json:"generate,omitempty"`

	// Mode is golden | smart | nosh | random.
	Mode string `json:"mode"`
	// Policy is an inline attack-policy artifact for smart-mode runs:
	// queued and remote workers evaluate the policy instead of the
	// paper's trigger. Journaled verbatim like Spec, so a
	// policy-driven job survives restarts with no server-side state.
	Policy *policy.Artifact `json:"policy,omitempty"`
	// Name keys the persisted records (default "<scenario>-<mode>").
	Name string `json:"name,omitempty"`
	Runs int    `json:"runs"`
	Seed int64  `json:"seed"`
	// Resume folds the job's own episodes already stored under Name
	// (Job.Own) instead of re-running them; the rest run.
	Resume bool `json:"resume,omitempty"`
}

// MaxRuns caps a request's episode count. A job's executor sizes its
// batch by runs, so an unbounded count would let one request exhaust
// the memory of whichever process runs it; a million episodes is far
// beyond any sweep the paper's evaluation needs.
const MaxRuns = 1_000_000

// Validate checks the request without touching the engine: the mode
// parses, runs is in [1, MaxRuns], and exactly one scenario source is given
// and well-formed (a name resolves through scenario.Named, as Source
// resolves it). It is the POST-time gate — a journaled job is always
// executable.
func (r *Request) Validate() error {
	mode, err := core.ParseMode(r.Mode)
	if err != nil {
		return err
	}
	if r.Runs <= 0 || r.Runs > MaxRuns {
		return fmt.Errorf("runs must be in [1, %d], got %d", MaxRuns, r.Runs)
	}
	if r.Policy != nil {
		if mode != core.ModeSmart {
			return fmt.Errorf("policy artifacts apply to smart-mode runs only (mode %q)", r.Mode)
		}
		if err := r.Policy.Validate(); err != nil {
			return err
		}
	}
	n := 0
	if r.Scenario != "" {
		n++
	}
	if r.Spec != nil {
		n++
	}
	if r.Generate != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("exactly one of scenario, spec or generate must be set (got %d)", n)
	}
	switch {
	case r.Scenario != "":
		if _, err := scenario.Named(r.Scenario); err != nil {
			return err
		}
	case r.Spec != nil:
		if err := r.Spec.Validate(); err != nil {
			return fmt.Errorf("inline spec: %w", err)
		}
	case r.Generate != nil:
		// A journaled job must be executable; an invalid space would
		// fail every episode.
		if err := r.Generate.WithDefaults().Validate(); err != nil {
			return fmt.Errorf("generate: %w", err)
		}
	}
	return nil
}

// Source resolves the request's scenario source.
func (r *Request) Source() (scenario.Source, error) {
	switch {
	case r.Scenario != "":
		return scenario.Named(r.Scenario)
	case r.Spec != nil:
		return scenario.FromSpec(r.Spec), nil
	case r.Generate != nil:
		return scenario.FromGenerator(scenegen.NewGenerator(*r.Generate)), nil
	default:
		return nil, fmt.Errorf("runq: request has no scenario source")
	}
}

// Label names the scenario source for statuses and reports.
func (r *Request) Label() string {
	switch {
	case r.Scenario != "":
		return r.Scenario
	case r.Spec != nil && r.Spec.Name != "":
		return r.Spec.Name
	case r.Spec != nil:
		return "spec"
	default:
		return "generated"
	}
}

// RecordName is the campaign key the job's records persist under:
// the explicit Name, or "<scenario label>-<mode>".
func (r *Request) RecordName() string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("%s-%s", r.Label(), strings.ToLower(r.Mode))
}
