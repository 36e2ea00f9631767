package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sourceDraws is how many values each stream comparison draws: more
// than twice the generator's 607-word lag, so every seeded word is fed
// back into the stream at least twice.
const sourceDraws = 1300

// checkSourceSeed fails t unless NewRNG(seed), and an RNG reseeded to
// seed after drawing from another seed, both yield rand.NewSource's
// Uint64 stream for seed, and unless the RNG's samplers, interleaved,
// return what rand.Rand returns on that stream.
func checkSourceSeed(t *testing.T, seed int64) {
	t.Helper()
	fresh := NewRNG(seed)
	dirty := NewRNG(seed ^ 0x5bd1e995)
	for range 700 {
		dirty.src.Uint64()
	}
	dirty.Reseed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := range sourceDraws {
		w := want.Uint64()
		if g := fresh.src.Uint64(); g != w {
			t.Fatalf("seed %d: draw %d of NewRNG is %#x, math/rand's %#x", seed, i, g, w)
		}
		if g := dirty.src.Uint64(); g != w {
			t.Fatalf("seed %d: draw %d after Reseed is %#x, math/rand's %#x", seed, i, g, w)
		}
	}

	g, r := NewRNG(seed), rand.New(rand.NewSource(seed))
	same := func(what string, i int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: %s draw %d is %v, math/rand's %v", seed, what, i, got, want)
		}
	}
	for i := range 60 {
		same("Float64", i, g.src.Float64(), r.Float64())
		same("Uniform", i, g.Uniform(-3, 5), -3+8*r.Float64())
		if got, want := g.Bernoulli(0.3), r.Float64() < 0.3; got != want {
			t.Fatalf("seed %d: Bernoulli draw %d is %v, math/rand's %v", seed, i, got, want)
		}
		same("Normal", i, g.Normal(1, 2), 1+2*r.NormFloat64())
		same("Exponential", i, g.Exponential(0.5), r.ExpFloat64()/0.5)
		if got, want := g.IntN(1+i), r.Intn(1+i); got != want {
			t.Fatalf("seed %d: IntN(%d) is %d, math/rand's %d", seed, 1+i, got, want)
		}
		if got, want := g.Perm(i%9), r.Perm(i%9); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Perm(%d) is %v, math/rand's %v", seed, i%9, got, want)
		}
		if got, want := g.SplitSeed(), int64(Mix64(uint64(r.Int63())+Golden64)); got != want {
			t.Fatalf("seed %d: SplitSeed draw %d is %d, want %d", seed, i, got, want)
		}
	}
}

// sourceEdgeSeeds are the seeds where math/rand's seed reduction
// modulo 2^31-1 changes branch: zero (replaced by 89482311), the
// modulus, its multiples and neighbours, ±2^31, 2^32, and the ends of
// int64.
var sourceEdgeSeeds = []int64{
	0, 1, -1, 89482311, -89482311,
	math.MaxInt32, -math.MaxInt32, math.MaxInt32 - 1,
	1 << 31, -1 << 31, 1 << 32, 2 * math.MaxInt32, -2 * math.MaxInt32,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
}

// TestSourceMatchesMathRand holds the ported generator to math/rand's
// on the edge seeds and on 10,000 random ones.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceEdgeSeeds {
		checkSourceSeed(t, seed)
	}
	n := 10000
	if testing.Short() {
		n = 500
	}
	seeds := rand.New(rand.NewSource(20240607))
	for range n {
		checkSourceSeed(t, int64(seeds.Uint64()))
	}
}

// scripted is a rand.Source that returns the given values in order.
type scripted []int64

func (s *scripted) Int63() int64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (s *scripted) Seed(int64) {}

// TestSourceFloat64DrawsAgain sets the generator's state so that its
// next Int63 is one whose quotient by 2^63 rounds to 1, which no seed
// is known to reach. Float64 must then discard it and return the next
// draw's quotient, as rand.Rand.Float64 does, and must return a value
// just below that boundary as it is.
func TestSourceFloat64DrawsAgain(t *testing.T) {
	for _, v := range []int64{1<<63 - 1, 1<<63 - 512, 1<<63 - 513, 0} {
		var s source
		s.Seed(7)
		for range 5 {
			s.Uint64()
		}
		// The next Uint64 adds these two words.
		feed, tap := (s.feed+srcLen-1)%srcLen, (s.tap+srcLen-1)%srcLen
		s.vec[feed], s.vec[tap] = v, 0

		after := s
		if got := after.Int63(); got != v {
			t.Fatalf("set-up: next Int63 is %d, want %d", got, v)
		}
		once := after
		follow := after.Int63()
		ref := scripted{v, follow}
		want := rand.New(&ref).Float64()
		wantState := once
		if len(ref) == 0 {
			wantState = after
		}

		if got := s.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Int63 %d: Float64 is %v, rand.Rand's %v", v, got, want)
		}
		if s != wantState {
			t.Errorf("Int63 %d: Float64 must draw %d values, as rand.Rand does", v, 2-len(ref))
		}
	}
}

// FuzzSourceSeed holds the ported generator to math/rand's on
// arbitrary seeds.
func FuzzSourceSeed(f *testing.F) {
	for _, seed := range sourceEdgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSourceSeed(t, seed)
	})
}

// BenchmarkReseed times one Reseed, which a campaign worker pays four
// times per attacked episode.
func BenchmarkReseed(b *testing.B) {
	g := NewRNG(1)
	for i := 0; i < b.N; i++ {
		g.Reseed(int64(i))
	}
}
