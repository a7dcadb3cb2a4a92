package engine

import "math/bits"

// Stream is a tiny deterministic PRNG (splitmix64) used for the per-ID
// randomness streams of the epoch pipeline. Unlike rand.New(rand.NewSource),
// constructing one is free — a single word of state on the stack, no heap
// allocation, no 607-word lagged-Fibonacci warm-up — which matters when a
// stream is derived per new ID per epoch. It is not a substitute for
// math/rand in the engine.Map contract (trials keep receiving *rand.Rand);
// it is the cheap substream primitive beneath it.
//
// The zero value is a valid stream seeded with 0; NewStream seeds one from a
// TrialSeed-derived value.
type Stream struct {
	state uint64
}

// NewStream returns a stream seeded with seed (conventionally a TrialSeed).
func NewStream(seed int64) Stream {
	return Stream{state: uint64(seed)}
}

// Uint64 returns the next 64 uniform bits (splitmix64 step).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uint64n returns a uniform value in [0, n) (Lemire multiply–shift with
// rejection, so the result is exactly uniform). n must be positive.
func (s *Stream) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). n must be positive.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("engine: Stream.Intn with non-positive n")
	}
	return int(s.uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
