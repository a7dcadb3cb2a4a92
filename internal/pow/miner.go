package pow

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/hashes"
)

// This file is the mining engine behind SolveSharded: a counter-mode σ
// candidate stream (one base-block derivation amortized over mineChunk
// attempts, so steady-state cost approaches one g compression per attempt),
// a multi-candidate inner loop over stack arenas, and a work-stealing
// scheduler that fans the attempt space over chunked claims off an atomic
// cursor. The attempt-index → σ mapping stays a pure function of (seed, a),
// which is what keeps the smallest-solving-index result — and therefore
// Solution.Attempts — bit-identical at every worker count.

// mineChunk is the number of consecutive attempt indices that share one
// derived σ base block, and the granularity at which workers claim ranges
// of the attempt space. One claim costs one base derivation plus mineChunk
// g hashes, and the early-exit poll against the current best index runs
// once per claim instead of once per attempt.
const mineChunk = 256

// mineBatch is how many candidates the inner loop stages per pass over the
// stack arena before hashing them — the multi-buffer structure a SIMD
// SHA-256 implementation would consume directly.
const mineBatch = 8

// sigmaOracle derives the σ candidate stream of a sharded solve. A
// dedicated domain-separation tag keeps this stream independent of the
// paper's five named oracles.
var sigmaOracle = hashes.NewFunc("sigma")

// sigmaBaseInto fills dst with the base block shared by the mineChunk
// attempt indices of chunk c — the one derivation the counter mode
// amortizes. Multi-block extension covers string lengths beyond one
// digest, exactly like EpochString.
func sigmaBaseInto(dst []byte, seed, chunk int64) {
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:16], uint64(chunk))
	n := 0
	for c := 0; n < len(dst); c++ {
		binary.BigEndian.PutUint64(buf[16:], uint64(c))
		d := sigmaOracle.Bytes(buf[:])
		n += copy(dst[n:], d[:])
	}
}

// counterBytes is the width of the embedded attempt counter.
const counterBytes = 8

// embedCounter overwrites the counter field of a σ candidate — the first 8
// bytes, little-endian, so the fastest-varying byte sits at offset 0 and
// short strings still see it. σ(seed, a) is therefore unique per attempt
// index for every StringLen ≥ 8: the counter disambiguates within a chunk,
// the base block across chunks.
func embedCounter(dst []byte, a int64) {
	var cnt [counterBytes]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(a))
	copy(dst, cnt[:])
}

// shardSigma returns the σ a sharded solve tries at global attempt index a
// (a ≥ 1): a fixed function of (seed, a) only, so the mapping from attempt
// index to candidate is identical no matter how the index space is sharded
// or which worker scans it. The candidate is the chunk's base block with
// an embedded 8-byte attempt counter, which is what lets the solver derive
// one base per mineChunk attempts instead of one full hash per attempt.
func shardSigma(seed int64, a int64, length int) []byte {
	out := make([]byte, length)
	shardSigmaInto(out, seed, a)
	return out
}

// shardSigmaInto writes shardSigma(seed, a, len(dst)) into dst without
// allocating.
func shardSigmaInto(dst []byte, seed int64, a int64) {
	sigmaBaseInto(dst, seed, (a-1)/mineChunk)
	embedCounter(dst, a)
}

// arenaBytes bounds the xor width the stack-arena fast path handles; wider
// inputs (StringLen or epoch strings beyond 64 bytes) take the generic
// path. 64 covers every caller in this repository.
const arenaBytes = 64

// miner is one worker's solve state: reusable buffers sized once so the
// per-chunk scan performs no heap allocation — only the hash work remains.
type miner struct {
	p    Params
	r    []byte
	seed int64
	// n is the xor width min(StringLen, len(r)) — the prefix g actually
	// hashes, matching Verify's XORInto semantics.
	n    int
	fast bool

	// base holds the current chunk's σ base block; xbase its XOR with r,
	// into which only the counter field is rewritten per candidate.
	base  []byte
	xbase [arenaBytes]byte
	// arena stages mineBatch xored candidates per inner-loop pass.
	arena [mineBatch][arenaBytes]byte
	// slow-path scratch (n < counterBytes or n > arenaBytes only).
	sigma, xored []byte
}

// newMiner sizes a worker's buffers for one solve.
func newMiner(r []byte, p Params, seed int64) *miner {
	m := &miner{p: p, r: r, seed: seed, n: min(p.StringLen, len(r))}
	m.base = make([]byte, p.StringLen)
	m.fast = m.n >= counterBytes && m.n <= arenaBytes
	if !m.fast {
		m.sigma = make([]byte, p.StringLen)
		m.xored = make([]byte, m.n)
	}
	return m
}

// scan tries attempt indices lo..hi (inclusive, all within one chunk) and
// returns the smallest solving index, if any. It never polls shared state:
// the early-exit check against the best known index happens at claim
// boundaries in the scheduler, not per attempt.
func (m *miner) scan(lo, hi int64) (int64, bool) {
	if !m.fast {
		return m.scanSlow(lo, hi)
	}
	sigmaBaseInto(m.base, m.seed, (lo-1)/mineChunk)
	for i := 0; i < m.n; i++ {
		m.xbase[i] = m.base[i] ^ m.r[i]
	}
	for a := lo; a <= hi; {
		bs := int64(mineBatch)
		if rem := hi - a + 1; rem < bs {
			bs = rem
		}
		// Pass 1: stage bs candidates into the arena — xbase with only the
		// counter field rewritten (counter ⊕ r, since the arena holds σ⊕r).
		for k := int64(0); k < bs; k++ {
			buf := &m.arena[k]
			copy(buf[counterBytes:m.n], m.xbase[counterBytes:m.n])
			var cnt [counterBytes]byte
			binary.LittleEndian.PutUint64(cnt[:], uint64(a+k))
			for i := 0; i < counterBytes; i++ {
				buf[i] = cnt[i] ^ m.r[i]
			}
		}
		// Pass 2: hash the staged candidates back-to-back. With a
		// multi-buffer SHA-256 this pass becomes one SIMD call; scanning in
		// index order means the first hit is the smallest in the batch.
		for k := int64(0); k < bs; k++ {
			if hashes.G.Point(m.arena[k][:m.n]) <= m.p.Tau {
				return a + k, true
			}
		}
		a += bs
	}
	return 0, false
}

// scanSlow is the generic-width fallback: same chunk-amortized base
// derivation and boundary-only polling discipline, one candidate at a time.
func (m *miner) scanSlow(lo, hi int64) (int64, bool) {
	sigmaBaseInto(m.base, m.seed, (lo-1)/mineChunk)
	for a := lo; a <= hi; a++ {
		copy(m.sigma, m.base)
		embedCounter(m.sigma, a)
		hashes.XORInto(m.xored, m.sigma, m.r)
		if hashes.G.Point(m.xored) <= m.p.Tau {
			return a, true
		}
	}
	return 0, false
}

// SolveSharded searches for g(σ ⊕ r) ≤ τ like Solve, but fans the attempt
// space over a work-stealing worker pool: workers claim mineChunk-sized
// ranges of attempt indices off a shared atomic cursor, so a worker whose
// ranges miss keeps stealing whatever remains instead of idling behind a
// fixed stride. Because shardSigma fixes the candidate at every index and
// the winner is the smallest solving index, the returned solution — Sigma,
// Y, ID and Attempts — is bit-identical for every worker count and
// schedule. Workers stop claiming as soon as a better (smaller) index has
// been found elsewhere, so wall-clock scales with cores while the result
// does not. workers ≤ 0 means GOMAXPROCS.
func SolveSharded(r []byte, p Params, seed int64, maxAttempts, workers int) (Solution, bool) {
	sol, ok, _ := SolveShardedContext(context.Background(), r, p, seed, maxAttempts, workers)
	return sol, ok
}

// SolveShardedContext is SolveSharded with cooperative cancellation: ctx is
// polled at chunk-claim boundaries, and on cancellation the solve returns
// ctx's error unless a solution had already been found (a solution found
// before the cancellation is observed is still returned, though under a
// cancelled context it may not be the smallest-index one). It serves the
// mint path, where a caller abandoning a request must release its solver
// goroutines promptly.
func SolveShardedContext(ctx context.Context, r []byte, p Params, seed int64, maxAttempts, workers int) (Solution, bool, error) {
	workers = max(min(engine.Workers(workers), maxAttempts), 1)
	// bestIdx holds the smallest solving attempt index found so far;
	// maxAttempts+1 means "none yet". Every index below the final value is
	// scanned by some claim: claims are monotone off the cursor, a claim is
	// only skipped when it starts at or beyond a current best, and bests
	// only decrease — so a skipped range can never contain a smaller
	// solution.
	var bestIdx atomic.Int64
	bestIdx.Store(int64(maxAttempts) + 1)
	// cursor hands out chunk claims: the next unclaimed attempt index is
	// cursor+1.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newMiner(r, p, seed)
			for {
				lo := cursor.Add(mineChunk) - mineChunk + 1
				if lo > int64(maxAttempts) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				if lo >= bestIdx.Load() {
					return // a smaller index already solved; nothing here can win
				}
				hi := lo + mineChunk - 1
				if hi > int64(maxAttempts) {
					hi = int64(maxAttempts)
				}
				if a, found := m.scan(lo, hi); found {
					for {
						cur := bestIdx.Load()
						if a >= cur || bestIdx.CompareAndSwap(cur, a) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	a := bestIdx.Load()
	if a > int64(maxAttempts) {
		if err := ctx.Err(); err != nil {
			return Solution{}, false, err
		}
		return Solution{Attempts: maxAttempts}, false, nil
	}
	sigma := shardSigma(seed, a, p.StringLen)
	y := hashes.G.Point(hashes.XOR(sigma, r))
	return Solution{Sigma: sigma, Y: y, ID: hashes.F.OfPoint(y), Attempts: int(a)}, true, nil
}
