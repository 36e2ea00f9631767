package scenario

import (
	"fmt"

	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/stats"
)

// Source is anything that can instantiate a scenario for an episode: a
// paper ID, a catalog name resolved by Named, an in-memory spec (e.g.
// loaded from a JSON file) or a procedural generator. The experiment
// harness takes a Source wherever it used to take an ID; ID itself
// implements Source, so existing call sites pass IDs unchanged.
//
// Instantiate draws every random choice from rng, so one episode seed
// maps to exactly one world regardless of worker scheduling. Sources
// are shared across concurrent episodes and must be stateless.
type Source interface {
	// Label names the source in reports and error messages.
	Label() string
	// Instantiate builds the scenario into ar; it and its world are
	// valid until ar's next instantiation. rng may be nil for the
	// nominal variant where the source supports one. Equal rng streams
	// give bit-identical worlds in a fresh arena and in a reused one.
	Instantiate(ar *Arena, rng *stats.RNG) (*Scenario, error)
}

// Label implements Source.
func (id ID) Label() string { return id.String() }

// Instantiate implements Source: it compiles the ID's catalog spec.
func (id ID) Instantiate(ar *Arena, rng *stats.RNG) (*Scenario, error) {
	spec, ok := scenegen.Lookup(id.String())
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %s", id)
	}
	return ar.Compile(spec, rng)
}

// Named resolves name in the built-in scenegen catalog and returns the
// source that compiles its spec. It is the one check of a scenario
// name: a name that passes it never fails to resolve again.
func Named(name string) (Source, error) {
	spec, ok := scenegen.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (have %v)", name, scenegen.Names())
	}
	return FromSpec(spec), nil
}

// FromSpec returns a Source that compiles the given spec each episode.
// The spec is shared, not copied; it must not be mutated afterwards.
func FromSpec(spec *scenegen.Spec) Source { return specSource{spec} }

type specSource struct{ spec *scenegen.Spec }

func (s specSource) Label() string { return s.spec.Name }

func (s specSource) Instantiate(ar *Arena, rng *stats.RNG) (*Scenario, error) {
	return ar.Compile(s.spec, rng)
}

// FromGenerator returns a Source that samples a fresh procedural
// scenario from gen on every instantiation — each episode seed yields a
// different world from the generator's space, which is what a
// scenario-diversity campaign sweeps over. The generated spec is new
// each call; its overlap check and its world both compile into the
// arena.
func FromGenerator(gen *scenegen.Generator) Source { return genSource{gen} }

type genSource struct{ gen *scenegen.Generator }

func (g genSource) Label() string { return "generated" }

func (g genSource) Instantiate(ar *Arena, rng *stats.RNG) (*Scenario, error) {
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	spec, err := g.gen.Generate(ar, rng, "generated")
	if err != nil {
		return nil, err
	}
	return ar.Compile(spec, nil)
}
