package scenario

import (
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

// InstantiateSource builds a scenario from src into ar. This is the
// single instantiation entry point for episode runners; a nil ar means
// a fresh arena, for callers that instantiate one scenario only.
func InstantiateSource(src Source, ar *Arena, rng *stats.RNG) (*Scenario, error) {
	if ar == nil {
		ar = NewArena()
	}
	return src.Instantiate(ar, rng)
}

// compile compiles spec into the arena and wraps the world in the
// arena's recycled Scenario header, recovering the paper ID when the
// spec is a built-in DS.
func (ar *Arena) compile(spec *scenegen.Spec, rng *stats.RNG) (*Scenario, error) {
	c, err := ar.gen.Compile(spec, rng)
	if err != nil {
		return nil, err
	}
	ar.sc = Scenario{
		ID:          idFromName(c.Name),
		Name:        c.Name,
		World:       c.World,
		TargetID:    c.TargetID,
		TargetClass: c.TargetClass,
		CruiseSpeed: c.CruiseSpeed,
		Duration:    c.Duration,
	}
	return &ar.sc, nil
}
