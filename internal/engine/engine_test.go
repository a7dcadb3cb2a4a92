package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTrialSeedIndependence(t *testing.T) {
	seen := map[int64]string{}
	for _, root := range []int64{1, 2} {
		for _, scope := range []string{"e1", "e2", "e1/sub"} {
			for trial := 0; trial < 50; trial++ {
				s := TrialSeed(root, scope, trial)
				if s < 0 {
					t.Fatalf("negative seed %d", s)
				}
				key := fmt.Sprintf("(%d,%s,%d)", root, scope, trial)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision between %s and %s", prev, key)
				}
				seen[s] = key
			}
		}
	}
}

func TestTrialSeedStable(t *testing.T) {
	a := TrialSeed(42, "exp", 7)
	b := TrialSeed(42, "exp", 7)
	if a != b {
		t.Errorf("TrialSeed not stable: %d vs %d", a, b)
	}
}

func TestMapOrderAndDeterminism(t *testing.T) {
	fn := func(trial int, rng *rand.Rand) [2]int64 {
		return [2]int64{int64(trial), rng.Int63()}
	}
	seq := Map(Config{Parallel: 1, RootSeed: 3}, "s", 40, fn)
	for i, v := range seq {
		if v[0] != int64(i) {
			t.Fatalf("result %d landed at index %d", v[0], i)
		}
	}
	for _, parallel := range []int{2, 8, 64} {
		par := Map(Config{Parallel: parallel, RootSeed: 3}, "s", 40, fn)
		for i := range seq {
			if par[i] != seq[i] {
				t.Errorf("parallel=%d: trial %d diverged: %v vs %v", parallel, i, par[i], seq[i])
			}
		}
	}
}

func TestMapScopesAreDisjointStreams(t *testing.T) {
	fn := func(_ int, rng *rand.Rand) int64 { return rng.Int63() }
	a := Map(Config{RootSeed: 1}, "alpha", 10, fn)
	b := Map(Config{RootSeed: 1}, "beta", 10, fn)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/10 trials drew identical values across scopes", same)
	}
}

func TestMapHonorsParallelCap(t *testing.T) {
	var inFlight, peak atomic.Int64
	Map(Config{Parallel: 3, RootSeed: 1}, "cap", 24, func(int, *rand.Rand) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return 0
	})
	if got := peak.Load(); got > 3 {
		t.Errorf("observed %d trials in flight, cap is 3", got)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(Config{}, "z", 0, func(int, *rand.Rand) int { return 1 }); len(got) != 0 {
		t.Errorf("n=0 returned %d results", len(got))
	}
	got := Map(Config{Parallel: 8}, "z", 1, func(i int, _ *rand.Rand) int { return i + 10 })
	if len(got) != 1 || got[0] != 10 {
		t.Errorf("n=1 returned %v", got)
	}
}

func TestMapReduceOrdered(t *testing.T) {
	got := MapReduce(Config{Parallel: 4, RootSeed: 1}, "r", 10, []int{-1},
		func(trial int, _ *rand.Rand) int { return trial },
		func(acc []int, _ int, v int) []int { return append(acc, v) })
	if len(got) != 11 || got[0] != -1 {
		t.Fatalf("init accumulator not threaded through: %v", got)
	}
	for i, v := range got[1:] {
		if v != i {
			t.Fatalf("reduce saw trial %d at position %d", v, i)
		}
	}
}

// TestMapNoSharedRandState hammers Map from several goroutines at once to
// give the race detector something to chew on.
func TestMapNoSharedRandState(t *testing.T) {
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			Map(Config{Parallel: 4, RootSeed: int64(k)}, "hammer", 32, func(_ int, rng *rand.Rand) float64 {
				s := 0.0
				for i := 0; i < 100; i++ {
					s += rng.Float64()
				}
				return s
			})
		}(k)
	}
	wg.Wait()
}

func TestWorkersDefault(t *testing.T) {
	if w := (Config{}).Workers(); w < 1 {
		t.Errorf("default workers %d", w)
	}
	if w := (Config{Parallel: 5}).Workers(); w != 5 {
		t.Errorf("explicit workers %d, want 5", w)
	}
	if w := (Config{Parallel: -1}).Workers(); w < 1 {
		t.Errorf("negative parallel gave %d workers", w)
	}
	for _, req := range []int{0, -3} {
		if w := Workers(req); w != runtime.GOMAXPROCS(0) {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS %d", req, w, runtime.GOMAXPROCS(0))
		}
	}
	if w := Workers(7); w != 7 {
		t.Errorf("Workers(7) = %d, want 7", w)
	}
}

// goid returns the current goroutine's id, read off its stack header.
func goid() int {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// The four TestPool* tests check on ForEach what they once checked on the
// long-lived worker pool it replaced: full index coverage, in-range worker
// indices per phase, nothing left to shut down, and the GOMAXPROCS default.

// TestPoolForEachCoversAllIndices: every index runs exactly once, n = 0
// calls nothing, and worker indices stay below the effective worker count.
func TestPoolForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				limit := min(Workers(workers), n)
				hits := make([]atomic.Int32, n)
				var bad atomic.Int32
				ForEach(workers, n, func(w, i int) {
					if w < 0 || w >= max(limit, 1) {
						bad.Add(1)
					}
					hits[i].Add(1)
				})
				if bad.Load() != 0 {
					t.Errorf("%d calls saw a worker index outside [0, %d)", bad.Load(), max(limit, 1))
				}
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("index %d ran %d times", i, h)
					}
				}
			})
		}
	}
}

// TestPoolRunExecutesOncePerSlot: a phase that hands one item to each of 4
// workers, run three times, executes exactly 12 calls, each with a worker
// index in range.
func TestPoolRunExecutesOncePerSlot(t *testing.T) {
	var total atomic.Int32
	for phase := 0; phase < 3; phase++ {
		ForEach(4, 4, func(w, _ int) {
			if w < 0 || w >= 4 {
				t.Errorf("worker index %d out of range", w)
			}
			total.Add(1)
		})
	}
	if total.Load() != 12 {
		t.Fatalf("ran %d slots, want 12", total.Load())
	}
}

// TestPoolCloseIdempotentAndSerialNoop: one worker runs everything inline on
// the caller's goroutine in index order, and a parallel call leaves no
// goroutine behind, so there is nothing to close.
func TestPoolCloseIdempotentAndSerialNoop(t *testing.T) {
	caller := goid()
	var order []int
	ForEach(1, 50, func(w, i int) {
		if w != 0 || goid() != caller {
			t.Errorf("index %d ran on worker %d, goroutine %d; want worker 0 on the caller's %d", i, w, goid(), caller)
		}
		order = append(order, i)
	})
	if len(order) != 50 {
		t.Fatalf("ran %d of 50 indices", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken at %d: %v", i, order)
		}
	}

	before := runtime.NumGoroutine()
	ForEach(8, 64, func(_, _ int) {})
	// A worker that has signalled done may still be unwinding; give it a
	// moment before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before ForEach, %d after", before, after)
	}
}

// TestPoolDefaultsToGOMAXPROCS: workers <= 0 fans out over GOMAXPROCS
// workers, no more.
func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, req := range []int{0, -3} {
		var bad, calls atomic.Int32
		ForEach(req, 10*procs, func(w, _ int) {
			if w < 0 || w >= procs {
				bad.Add(1)
			}
			calls.Add(1)
		})
		if bad.Load() != 0 {
			t.Errorf("workers=%d: %d calls saw a worker index outside [0, %d)", req, bad.Load(), procs)
		}
		if calls.Load() != int32(10*procs) {
			t.Errorf("workers=%d: ran %d of %d indices", req, calls.Load(), 10*procs)
		}
	}
}
