package sim

import (
	"math/rand"
	"sync"
)

// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register: a draw adds the word at the tap to the word at the
// feed, stores the sum at the feed and returns it. Seeding reduces the
// seed to s in [1, 2³¹−1) and fills the register from the Lehmer
// generator x ← 48271·x mod (2³¹−1) started at s, so that with
// x_k = 48271ᵏ·s mod (2³¹−1)
//
//	word i = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ cooked[i].
//
// rand.NewSource runs all 1,841 Lehmer steps and fills the 607 words
// before the first draw. With the powers 48271ᵏ tabulated, every word
// stands alone, so lazySource builds a word only when a draw first reads
// it: draw n (from 0) first reads word 333−n while n < 334 and word 606−n
// while n < 273, and every later read finds a word an earlier draw built
// or wrote. Seeding costs O(1) and the first k draws O(k), and a source
// re-seeded for another world reads nothing its last world left behind.
// The stream is math/rand's, which the Go 1 promise freezes.
const (
	rngLen   = 607                    // register words
	rngTap   = 273                    // lag between the tap and the feed
	rngFeed  = rngLen - rngTap        // the feed's start
	rngSkip  = 20                     // Lehmer steps discarded before word 0
	int32max = 1<<31 - 1              // the Lehmer modulus, prime
	rngMask  = 1<<63 - 1              // Int63's bits
	lehmerA  = 48271                  // the Lehmer multiplier
	zeroSeed = 89482311               // what a seed ≡ 0 mod 2³¹−1 seeds with
	rngPows  = rngSkip + 1 + 3*rngLen // x₀ … x₁₈₄₁
)

var (
	// rngPow[k] = 48271ᵏ mod (2³¹−1).
	rngPow [rngPows]uint64
	// rngCooked is math/rand's fixed table, recovered at init.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := range rngPow {
		rngPow[k] = p
		p = p * lehmerA % int32max
	}
	// Recover the cooked table from math/rand's own seed-1 stream by
	// running the register backwards. Draw n reads the tap word 606−n;
	// from n = 273 on, that word holds the output of draw n−273. So
	// draws 273…606 give the seeded feed words 0…60 and 334…606, and
	// draws 0…272, which add the tap words 606…334 known by then, give
	// the feed words 333…61.
	ref := rand.NewSource(1).(rand.Source64)
	var out, seeded [rngLen]int64
	for n := range out {
		out[n] = int64(ref.Uint64())
	}
	for n := rngTap; n < rngLen; n++ {
		seeded[(rngFeed-1-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 0; n < rngTap; n++ {
		seeded[rngFeed-1-n] = out[n] - seeded[rngLen-1-n]
	}
	one := lazySource{seed: 1}
	for i := range seeded {
		rngCooked[i] = seeded[i] ^ one.word(i)
	}
}

// lazySource is a rand.Source64 whose stream equals
// rand.NewSource(seed)'s, seeded lazily as the comment on the constants
// above describes.
type lazySource struct {
	seed      uint64 // the reduced seed s
	tap, feed int
	built     int // draws that have built their words, up to rngFeed
	vec       [rngLen]int64
}

// Seed restarts the stream at seed, reduced as math/rand reduces it.
func (r *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	r.seed = uint64(seed)
	r.tap, r.feed, r.built = 0, rngFeed, 0
}

// word builds register word i for the source's seed. At init, before
// rngCooked is filled, it leaves out the cooked term.
func (r *lazySource) word(i int) int64 {
	k := rngSkip + 1 + 3*i
	x0 := rngPow[k] * r.seed % int32max
	x1 := rngPow[k+1] * r.seed % int32max
	x2 := rngPow[k+2] * r.seed % int32max
	return int64(x0<<40^x1<<20^x2) ^ rngCooked[i]
}

func (r *lazySource) Uint64() uint64 {
	if n := r.built; n < rngFeed {
		r.vec[rngFeed-1-n] = r.word(rngFeed - 1 - n)
		if n < rngTap {
			r.vec[rngLen-1-n] = r.word(rngLen - 1 - n)
		}
		r.built++
	}
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *lazySource) Int63() int64 { return int64(r.Uint64() & rngMask) }

// NewRand returns a generator whose every method returns what
// rand.New(rand.NewSource(seed))'s would, for a fraction of the seeding
// cost: the register is built as the draws reach it. The generator may be
// one that RecycleRand or a finished world handed back.
func NewRand(seed int64) *rand.Rand {
	r := rands.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// RecycleRand hands a generator from NewRand back for the next NewRand or
// NewWorld. The caller must not use r afterwards.
func RecycleRand(r *rand.Rand) {
	if r != nil {
		rands.Put(r)
	}
}

// rands recycles generators: those of finished worlds and those handed
// back by RecycleRand. Reuse is safe because Seed restarts the lazy
// build: every word is rebuilt before a draw first reads it.
var rands = sync.Pool{New: func() any { return rand.New(new(lazySource)) }}
