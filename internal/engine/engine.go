// Package engine is the parallel deterministic experiment runner: it fans
// independent trials (closures) across a bounded set of goroutines and
// returns their results in trial order, with each trial's randomness derived
// from a root seed by hashing — so a run's output is bit-identical at every
// parallelism level, from -parallel 1 to saturating the machine.
//
// The determinism contract has three legs:
//
//  1. per-trial seeds are SHA-256(rootSeed ‖ scope ‖ trialIdx), never a
//     shared rand.Rand consumed in scheduling order;
//  2. trials communicate only through their return value, never through
//     shared mutable state;
//  3. results are reduced in trial-index order, never completion order.
//
// Anything built on Map therefore parallelizes for free without changing a
// single output byte, which is what lets CI assert -parallel 1 ≡ -parallel 8.
//
// Beneath Map sits ForEach, the repository's one fan-out: every parallel
// index-range loop runs on it. Its goroutines live only for the call, so
// nothing that fans out owns goroutines to shut down.
package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config controls how a batch of trials executes.
type Config struct {
	// Parallel caps the number of trials in flight; 0 (or negative) means
	// GOMAXPROCS. It affects wall-clock only, never results.
	Parallel int
	// RootSeed drives every derived trial seed.
	RootSeed int64
}

// Workers returns the effective worker count.
func (c Config) Workers() int { return Workers(c.Parallel) }

// Workers resolves a requested worker count: workers itself when positive,
// GOMAXPROCS otherwise. It is the one place that default is applied; callers
// that size per-worker state for ForEach size it with Workers.
func Workers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(worker, i) for every i in [0, n) and returns when all calls
// are done. It starts min(Workers(workers), n) goroutines for this call
// only; they claim indices off a shared atomic cursor, so uneven items
// balance, and worker stays in [0, Workers(workers)), so it can index
// per-worker state. With one worker, fn runs inline on the caller's
// goroutine in index order. Which worker runs which index depends on the
// schedule; fn must write only index- or worker-addressed state, which is
// what keeps results independent of it.
//
// The caller only waits. A variant in which it also took a share of the
// work ran BenchmarkPoWVerifyBatch 17 % slower on a 2-vCPU x86-64 box: a
// goroutine just started waits in the caller's processor's run-next slot,
// which another processor steals only after a back-off.
func ForEach(workers, n int, fn func(worker, i int)) {
	w := min(Workers(workers), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(k, i)
			}
		}()
	}
	wg.Wait()
}

// trialSeedOneShotMax bounds the rootSeed ‖ scope ‖ trial compositions that
// hash via a stack buffer; longer scopes take the streaming path. Every
// scope in this repository is far below the 48-byte budget.
const trialSeedOneShotMax = 64

// TrialSeed derives the deterministic seed of one trial as
// SHA-256(rootSeed ‖ scope ‖ trial) truncated to 63 bits. The scope string
// (conventionally "experimentID" or "experimentID/stage") keeps distinct
// trial batches on disjoint randomness streams even under one root seed.
//
// Short scopes hash through a one-shot sha256.Sum256 over a stack buffer, so
// the call is allocation-free — it sits on the per-ID hot path of the epoch
// pipeline, which derives one stream per new ID per epoch. The byte layout
// is identical to the streaming fallback, so outputs never depend on which
// path ran.
func TrialSeed(rootSeed int64, scope string, trial int) int64 {
	if 16+len(scope) <= trialSeedOneShotMax {
		var buf [trialSeedOneShotMax]byte
		binary.BigEndian.PutUint64(buf[:8], uint64(rootSeed))
		n := 8 + copy(buf[8:], scope)
		binary.BigEndian.PutUint64(buf[n:], uint64(trial))
		sum := sha256.Sum256(buf[:n+8])
		return int64(binary.BigEndian.Uint64(sum[:8]) &^ (1 << 63))
	}
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(rootSeed))
	h.Write(buf[:])
	h.Write([]byte(scope))
	binary.BigEndian.PutUint64(buf[:], uint64(trial))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	return int64(binary.BigEndian.Uint64(h.Sum(sum[:0])[:8]) &^ (1 << 63))
}

// Map runs fn for trials 0..n-1 on cfg.Workers() workers (see ForEach) and
// returns the results in trial order. Each invocation receives a private
// rand.Rand seeded with TrialSeed(cfg.RootSeed, scope, trial); fn must not
// touch shared mutable state. The output is bit-identical for every
// Parallel setting.
func Map[T any](cfg Config, scope string, n int, fn func(trial int, rng *rand.Rand) T) []T {
	out := make([]T, n)
	ForEach(cfg.Parallel, n, func(_, i int) {
		out[i] = fn(i, rand.New(rand.NewSource(TrialSeed(cfg.RootSeed, scope, i))))
	})
	return out
}

// MapReduce fans fn over n trials like Map, then folds the ordered results
// into init through reduce — the trial-as-closure + result-reducer
// contract in one call. reduce runs on the caller's goroutine, in trial
// order.
func MapReduce[T, R any](cfg Config, scope string, n int, init R, fn func(trial int, rng *rand.Rand) T, reduce func(acc R, trial int, v T) R) R {
	acc := init
	for i, v := range Map(cfg, scope, n, fn) {
		acc = reduce(acc, i, v)
	}
	return acc
}
