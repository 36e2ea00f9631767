// Package stats provides the deterministic randomness and the statistics
// toolkit used across the reproduction: seeded RNG streams, Gaussian and
// exponential sampling with maximum-likelihood fitting (used to
// regenerate the Fig. 5 characterization), percentiles and five-number
// boxplot summaries (Figs. 6 and 7).
//
// The streams are math/rand's: the package carries a port of its
// generator (source.go) that yields rand.NewSource's values for every
// seed, and draws Normal, Exponential, IntN and Perm through rand.Rand
// on it. The port seeds about four times faster, which matters because
// a campaign reseeds four streams per episode.
package stats

import "math/rand"

// RNG is a deterministic random stream. Every stochastic component in the
// codebase receives one by injection so that whole campaigns replay
// exactly from a base seed.
type RNG struct {
	src source
	r   *rand.Rand // over &src
}

// NewRNG returns a stream seeded with seed: the values of
// rand.New(rand.NewSource(seed)).
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Reseed rewinds the stream to the start of the sequence for seed,
// reusing the existing source. A reseeded stream produces exactly the
// same values as NewRNG(seed), so pooled episode state can recycle its
// RNGs without perturbing replay determinism.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Split derives an independent child stream. The derivation mixes the
// parent's next value with a SplitMix64 step so sibling streams do not
// correlate.
func (g *RNG) Split() *RNG {
	return NewRNG(g.SplitSeed())
}

// SplitSeed advances the stream one step and returns the seed Split
// would hand a child — callers that recycle a pooled child RNG feed it
// to Reseed instead of allocating a fresh stream.
func (g *RNG) SplitSeed() int64 {
	return int64(Mix64(uint64(g.src.Int63()) + Golden64))
}

// Golden64 is SplitMix64's increment, the odd integer nearest 2^64
// over the golden ratio: a SplitMix64 stream's n-th state is its seed
// plus n*Golden64.
const Golden64 uint64 = 0x9e3779b97f4a7c15

// Mix64 is the SplitMix64 finalizer, a bijection on uint64 that
// spreads every input bit over the output. It is the repo's one seed
// mixer: RNG.SplitSeed, engine.SplitMixSeeds and the trace and span
// IDs all derive through it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// IntN returns a uniform sample in [0, n).
func (g *RNG) IntN(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.src.Float64() }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, sigma float64) float64 {
	return mean + sigma*g.r.NormFloat64()
}

// Exponential returns an exponential sample with rate lambda
// (mean 1/lambda).
func (g *RNG) Exponential(lambda float64) float64 {
	return g.r.ExpFloat64() / lambda
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.src.Float64() < p }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
