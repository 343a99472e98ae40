package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randSeeds returns the edge seeds of math/rand's reduction and enough
// spread seeds, both signs, to make at least 4,000.
func randSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, zeroSeed, -zeroSeed,
		int32max, -int32max, int32max - 1, -int32max + 1,
		1 << 31, -1 << 31, 2 * int32max, -2 * int32max,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	spread := rand.New(rand.NewSource(20231))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(i), spread.Int63()-spread.Int63())
	}
	return seeds
}

// sameStream fails the test unless got draws what want draws: a mix of
// Float64, Int63n and Intn, which math/rand derives from Int63, then n
// Uint64s.
func sameStream(t *testing.T, what string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 1; i <= 50; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("%s: Float64 draw %d = %v, math/rand draws %v", what, i, g, w)
		}
		if g, w := got.Int63n(int64(i)*1_000_003), want.Int63n(int64(i)*1_000_003); g != w {
			t.Fatalf("%s: Int63n draw %d = %d, math/rand draws %d", what, i, g, w)
		}
		if g, w := got.Intn(i), want.Intn(i); g != w {
			t.Fatalf("%s: Intn draw %d = %d, math/rand draws %d", what, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: Uint64 draw %d = %#x, math/rand draws %#x", what, i, g, w)
		}
	}
}

func mathRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRandMatchesMathRand holds NewRand to math/rand's stream. Per seed,
// about 150 Int63-based draws and then 1,500 Uint64 draws cover the
// lazily built words (the first 334 draws) and the register's wrap-around
// (draw 607 on).
func TestRandMatchesMathRand(t *testing.T) {
	seeds := randSeeds()
	if len(seeds) < 4000 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	for _, seed := range seeds {
		sameStream(t, fmt.Sprint("seed ", seed), NewRand(seed), mathRand(seed), 1500)
	}
}

// TestRandReseed re-seeds used generators, as a recycled world generator
// is, at every boundary of the lazy build: each must then draw what a
// fresh generator draws. The pooled path, NewRand after a RecycleRand,
// must too.
func TestRandReseed(t *testing.T) {
	for _, used := range []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 5000} {
		r := NewRand(42)
		for i := 0; i < used; i++ {
			r.Uint64()
		}
		r.Seed(-7)
		sameStream(t, fmt.Sprintf("re-seeded after %d draws", used), r, mathRand(-7), 1500)
	}
	for i := int64(0); i < 20; i++ {
		r := NewRand(i)
		sameStream(t, fmt.Sprint("pooled seed ", i), r, mathRand(i), int(i)*50)
		RecycleRand(r)
	}
}

// FuzzRandMatchesMathRand draws a fuzzed number of values, re-seeds in
// mid-stream and draws on, against math/rand.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(0))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint16(333))
	f.Add(int64(int32max), int64(-int32max), uint16(607))
	f.Fuzz(func(t *testing.T, seed, reseed int64, at uint16) {
		got, want := NewRand(seed), mathRand(seed)
		sameStream(t, "before re-seeding", got, want, int(at%2000))
		got.Seed(reseed)
		want.Seed(reseed)
		sameStream(t, "after re-seeding", got, want, 700)
	})
}
