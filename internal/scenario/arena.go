package scenario

import (
	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/stats"
)

// Arena is the reusable instantiation state for one engine worker: the
// scenegen compilation arena. Episodes that run back to back on a
// worker instantiate their scenarios into the same arena, which removes
// per-episode world construction from the allocator entirely. The
// returned Scenario (and its world) live in the arena and are valid
// until the next instantiation; an arena serves one worker at a time.
type Arena = scenegen.Arena

// NewArena returns an empty arena.
func NewArena() *Arena { return scenegen.NewArena() }

// InstantiateSource builds a scenario from src into ar. This is the
// single instantiation entry point for episode runners; a nil ar means
// a fresh arena, for callers that instantiate one scenario only.
func InstantiateSource(src Source, ar *Arena, rng *stats.RNG) (*Scenario, error) {
	if ar == nil {
		ar = NewArena()
	}
	return src.Instantiate(ar, rng)
}
