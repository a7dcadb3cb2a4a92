package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent fixed-size worker pool: goroutines are started once
// (lazily, on the first parallel Run) and reused across every subsequent
// phase, so callers that fan out work repeatedly — the sim runtime's
// per-round phases, the epoch pipeline's per-ID construction — pay the
// goroutine start-up cost once per pool, not once per batch.
//
// The pool broadcasts *phases*: Run hands the same closure to every worker
// and returns when all of them have finished. Work distribution inside a
// phase is the caller's business (ForEach provides the common shared-cursor
// loop). Nothing about the schedule may leak into results: pool users must
// write to disjoint (e.g. index-addressed) locations or reduce over
// order-independent accumulators, the same contract engine.Map enforces.
//
// A Pool with one worker never starts goroutines: Run and ForEach execute
// inline, which keeps single-worker determinism checks byte-for-byte
// comparable with parallel runs and keeps the serial path allocation-free.
type Pool struct {
	workers int
	tasks   chan func(worker int)
	// wg lives in its own allocation so worker goroutines can reference it
	// (and the channel) without keeping the Pool itself reachable — that is
	// what lets the finalizer below reclaim the workers of a pool the owner
	// forgot to Close.
	wg        *sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// NewPool returns a pool of the given size; workers <= 0 means GOMAXPROCS.
// No goroutines are started until the first Run that needs them.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) start() {
	p.tasks = make(chan func(int))
	p.wg = &sync.WaitGroup{}
	tasks, wg := p.tasks, p.wg
	for w := 0; w < p.workers; w++ {
		go func(w int) {
			for fn := range tasks {
				fn(w)
				wg.Done()
			}
		}(w)
	}
	// Safety net for pools that are dropped without Close: the workers
	// reference only tasks and wg, so the Pool itself becomes unreachable
	// and the finalizer shuts them down.
	runtime.SetFinalizer(p, (*Pool).Close)
}

// Run broadcasts one phase: every worker executes fn(worker) once, and Run
// returns when all have finished. fn must partition its own work by worker
// index or a shared atomic cursor. With one worker, fn runs inline.
// Run must not be called concurrently with itself or with Close.
func (p *Pool) Run(fn func(worker int)) {
	if p.workers <= 1 {
		fn(0)
		return
	}
	p.startOnce.Do(p.start)
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.tasks <- fn
	}
	p.wg.Wait()
}

// ForEach executes fn(worker, i) for every i in [0, n), claiming indices off
// a shared cursor so uneven items balance across workers. Which worker runs
// which index is schedule-dependent; everything else — given fn meets the
// disjoint-writes contract — is not.
func (p *Pool) ForEach(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	p.Run(func(w int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	})
}

// Close shuts the workers down. Idempotent; the pool must not be used
// afterwards. Closing a pool that never went parallel is a no-op.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		if p.tasks != nil {
			runtime.SetFinalizer(p, nil)
			close(p.tasks)
		}
	})
}

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
