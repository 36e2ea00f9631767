package scenario

import (
	"fmt"

	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/stats"
)

// Arena is the reusable instantiation state for one engine worker: a
// scenegen compilation arena plus a recycled Scenario header. Episodes
// that run back to back on a worker instantiate their scenarios into
// the same arena, which removes per-episode world construction from
// the allocator entirely. The returned Scenario (and its world) are
// valid until the next instantiation; an arena serves one worker at a
// time.
type Arena struct {
	gen scenegen.Arena
	sc  Scenario
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// ArenaSource is implemented by Sources that can instantiate into an
// arena instead of allocating. All built-in sources (IDs, specs, named
// registry entries, generators) implement it; the experiment harness
// falls back to plain Instantiate for Sources that do not.
type ArenaSource interface {
	Source
	// InstantiateInto is Instantiate with the allocations routed into
	// ar. It must draw the identical rng stream and produce a
	// bit-identical world.
	InstantiateInto(ar *Arena, rng *stats.RNG) (*Scenario, error)
}

// InstantiateSource builds a scenario from src, routing allocations
// into ar when both the arena and the source support it. This is the
// single instantiation entry point for episode runners.
func InstantiateSource(src Source, ar *Arena, rng *stats.RNG) (*Scenario, error) {
	if as, ok := src.(ArenaSource); ok && ar != nil {
		return as.InstantiateInto(ar, rng)
	}
	return src.Instantiate(rng)
}

// fromCompiled recycles the arena's Scenario header around a compiled
// world — the pooled counterpart of FromCompiled.
func (ar *Arena) fromCompiled(c *scenegen.Compiled) *Scenario {
	ar.sc = Scenario{
		ID:          idFromName(c.Name),
		Name:        c.Name,
		World:       c.World,
		TargetID:    c.TargetID,
		TargetClass: c.TargetClass,
		CruiseSpeed: c.CruiseSpeed,
		Duration:    c.Duration,
	}
	return &ar.sc
}

// InstantiateInto implements ArenaSource.
func (id ID) InstantiateInto(ar *Arena, rng *stats.RNG) (*Scenario, error) {
	if id < DS1 || id > DS5 {
		return nil, fmt.Errorf("scenario: unknown scenario %s", id)
	}
	spec, ok := scenegen.Lookup(dsNames[id-DS1])
	if !ok {
		return nil, fmt.Errorf("scenario: registry is missing built-in %s", id)
	}
	c, err := ar.gen.Compile(spec, rng)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return ar.fromCompiled(c), nil
}

// InstantiateInto implements ArenaSource.
func (s specSource) InstantiateInto(ar *Arena, rng *stats.RNG) (*Scenario, error) {
	c, err := ar.gen.Compile(s.spec, rng)
	if err != nil {
		return nil, err
	}
	return ar.fromCompiled(c), nil
}

// InstantiateInto implements ArenaSource.
func (n namedSource) InstantiateInto(ar *Arena, rng *stats.RNG) (*Scenario, error) {
	spec, ok := scenegen.Lookup(string(n))
	if !ok {
		return nil, fmt.Errorf("scenario: no registered scenario %q (have %v)", string(n), scenegen.Names())
	}
	c, err := ar.gen.Compile(spec, rng)
	if err != nil {
		return nil, err
	}
	return ar.fromCompiled(c), nil
}

// InstantiateInto implements ArenaSource. The generated spec itself is
// still sampled fresh (the generator's output is a new Spec each call);
// only the compiled world recycles through the arena.
func (g genSource) InstantiateInto(ar *Arena, rng *stats.RNG) (*Scenario, error) {
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	spec, err := g.gen.Generate(rng, "generated")
	if err != nil {
		return nil, err
	}
	c, err := ar.gen.Compile(spec, nil)
	if err != nil {
		return nil, err
	}
	return ar.fromCompiled(c), nil
}
