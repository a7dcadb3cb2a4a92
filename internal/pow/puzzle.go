// Package pow implements the paper's proof-of-work subsystem (§IV): ID
// generation by computational puzzles, ID verification and expiry, and the
// global-random-string lottery that defeats pre-computation attacks
// (Appendix VIII).
//
// Two layers are provided:
//
//   - a literal layer (this file): real SHA-256 puzzle solving and
//     verification, used by tests and small-scale runs to validate the
//     model;
//   - a statistical layer (mint.go): the exact binomial/Poisson solution
//     counts the Lemma 11 proof analyzes, used for large sweeps.
package pow

import (
	"encoding/binary"
	"math"
	"math/rand"

	"repro/internal/hashes"
	"repro/internal/ring"
)

// Params fixes the puzzle difficulty and string length.
type Params struct {
	// Tau is the success threshold: σ solves the puzzle against epoch
	// string r iff g(σ ⊕ r) ≤ Tau. The paper sets τ so that an honest ID
	// finds a solution in (1±ε)T/2 steps; with one attempt per step that is
	// Tau ≈ 2/T of the output space.
	Tau ring.Point
	// StringLen is the byte length of σ and r (the paper's ℓ·ln n bits).
	StringLen int
}

// Solution is a solved puzzle: the pre-image σ, the intermediate output
// y = g(σ⊕r), and the resulting ID f(y).
type Solution struct {
	Sigma    []byte
	Y        ring.Point
	ID       ring.Point
	Attempts int
}

// Solve searches for a σ with g(σ ⊕ r) ≤ τ, up to maxAttempts attempts.
// The returned ID is f(g(σ ⊕ r)) — the two-hash composition that forces
// IDs to be u.a.r. even for an adversary that cherry-picks inputs (§IV-A,
// "Why Use Two Hash Functions?").
func Solve(r []byte, p Params, rng *rand.Rand, maxAttempts int) (Solution, bool) {
	sigma := make([]byte, p.StringLen)
	xored := make([]byte, p.StringLen) // reused: the attempt loop allocates nothing
	for a := 1; a <= maxAttempts; a++ {
		rng.Read(sigma)
		y := hashes.G.Point(hashes.XORInto(xored, sigma, r))
		if y <= p.Tau {
			out := make([]byte, len(sigma))
			copy(out, sigma)
			return Solution{Sigma: out, Y: y, ID: hashes.F.OfPoint(y), Attempts: a}, true
		}
	}
	return Solution{Attempts: maxAttempts}, false
}

// Verify checks a claimed ID against its pre-image σ and the epoch string
// r: g(σ⊕r) ≤ τ and f(g(σ⊕r)) = id. An ID signed with an expired epoch
// string fails verification against the current one — this is exactly how
// the paper expires IDs. (The paper uses a zero-knowledge proof so σ is not
// revealed; the accept/reject behavior — all that the simulation observes —
// is identical.)
func Verify(id ring.Point, sigma, r []byte, p Params) bool {
	// Typical string lengths (ℓ·ln n ≈ 32 bytes) xor on the stack; longer
	// strings fall back to one transient buffer.
	var stack [64]byte
	buf := stack[:]
	if n := len(sigma); n > len(buf) {
		buf = make([]byte, n)
	}
	y := hashes.G.Point(hashes.XORInto(buf, sigma, r))
	return y <= p.Tau && hashes.F.OfPoint(y) == id
}

// TauForWork returns the threshold at which one solution takes `work`
// attempts in expectation: τ = 2^64 / work of the output space. Work
// doubles, τ halves. work < 2 means every attempt solves.
func TauForWork(work float64) ring.Point {
	if work < 2 {
		return ^ring.Point(0)
	}
	// 2^64/work ≤ 2^63 here, so the float→uint conversion is exact-range.
	return ring.Point(math.Ldexp(1, 64) / work)
}

// EpochString derives a fresh epoch string deterministically from a seed
// and epoch index (trusted-setup stand-in where the full lottery is not
// being exercised). Seed, epoch, and the block counter occupy separate
// fixed-width fields of the hash input, so no (epoch, counter) pair can
// collide with another.
func EpochString(seed int64, epoch int, length int) []byte {
	out := make([]byte, 0, length)
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:16], uint64(epoch))
	for c := 0; len(out) < length; c++ {
		binary.BigEndian.PutUint64(buf[16:], uint64(c))
		d := hashes.H.Bytes(buf[:])
		out = append(out, d[:]...)
	}
	return out[:length]
}
