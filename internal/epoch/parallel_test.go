package epoch

import (
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/groups"
	"repro/internal/ring"
)

// graphFingerprint hashes everything observable about a generation's
// graphs: leaders, member lists (IDs and badness), and classifications.
// Byte-identical fingerprints mean byte-identical graphs.
func graphFingerprint(gs [2]*groups.Graph) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, g := range gs {
		if g == nil {
			continue
		}
		for i := 0; i < g.N(); i++ {
			grp := g.GroupAt(i)
			binary.BigEndian.PutUint64(buf[:], uint64(grp.Leader))
			h.Write(buf[:])
			flags := byte(0)
			if grp.Bad {
				flags |= 1
			}
			if grp.Confused {
				flags |= 2
			}
			h.Write([]byte{flags})
			for _, m := range grp.Members {
				binary.BigEndian.PutUint64(buf[:], uint64(m.ID))
				h.Write(buf[:])
				if m.Bad {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// TestRunEpochWorkerCountInvariance is the pipeline's core contract: Stats
// and the resulting graph classifications are byte-identical at every
// worker count, under every phase the epoch runs (spam, departures,
// verification on).
func TestRunEpochWorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]Stats, [][32]byte) {
		cfg := DefaultConfig(256)
		cfg.Seed = 31
		cfg.SpamFactor = 3
		cfg.MidEpochDepartures = 0.05
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stats []Stats
		var prints [][32]byte
		for e := 0; e < 2; e++ {
			stats = append(stats, s.RunEpoch())
			prints = append(prints, graphFingerprint(s.Generation().Graphs))
		}
		return stats, prints
	}
	refStats, refPrints := run(1)
	for _, workers := range []int{2, 4, 16} {
		stats, prints := run(workers)
		if !reflect.DeepEqual(stats, refStats) {
			t.Errorf("workers=%d: Stats diverged from workers=1:\n got %+v\nwant %+v", workers, stats, refStats)
		}
		for e := range prints {
			if prints[e] != refPrints[e] {
				t.Errorf("workers=%d: epoch %d graph fingerprint diverged", workers, e+1)
			}
		}
	}
}

// TestRunEpochWorkerCountInvarianceSingleGraph covers the E5 ablation arm
// (one graph, different search accounting) at several worker counts.
func TestRunEpochWorkerCountInvarianceSingleGraph(t *testing.T) {
	run := func(workers int) Stats {
		cfg := DefaultConfig(256)
		cfg.Seed = 33
		cfg.TwoGraphs = false
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.RunEpoch()
	}
	ref := run(1)
	for _, workers := range []int{4, 16} {
		if st := run(workers); !reflect.DeepEqual(st, ref) {
			t.Errorf("workers=%d: Stats diverged: %+v vs %+v", workers, st, ref)
		}
	}
}

// TestSearchOutcomeAllocFree gates the search primitive — single and dual,
// on every overlay — and its point-form wrapper at zero allocations per
// operation once the scratch is warm.
func TestSearchOutcomeAllocFree(t *testing.T) {
	for _, ov := range []string{"chord", "debruijn", "viceroy"} {
		cfg := DefaultConfig(512)
		cfg.Seed = 35
		cfg.Overlay = ov
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, r := s.Generation().Graphs, s.Generation().Ring
		var sc groups.SearchScratch
		// Warm the scratch buffer.
		g[0].SearchOutcomeDualTo(g[1], 1, -1, 99999, &sc)
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			i++
			g[0].SearchOutcome(r.At(i%r.Len()), ring_(i*7919), &sc)
		}); allocs != 0 {
			t.Errorf("%s: SearchOutcome allocates %.1f/op, want 0", ov, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			i++
			g[0].SearchOutcomeDualTo(g[1], i%r.Len(), -1, ring_(i*104729), &sc)
		}); allocs != 0 {
			t.Errorf("%s: dual SearchOutcomeDualTo allocates %.1f/op, want 0", ov, allocs)
		}
	}
}

// TestPerIDEpochStepAllocFree gates the steady-state per-ID construction
// step — the unit the pool fans out — at zero allocations: per-ID RNG
// stream, batched member hashing, dual searches and arena writes all run
// on reused worker-local state.
func TestPerIDEpochStepAllocFree(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Seed = 37
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpoch() // reach steady state (arenas sized, scratch warm)

	// Stage the next epoch's inputs exactly as RunEpoch would.
	epochSeed := engine.TrialSeed(cfg.Seed, "epoch", s.Epoch()+1)
	pl := adversary.Place(adversary.Config{
		N: cfg.N, Beta: cfg.Params.Beta, Strategy: cfg.Strategy,
	}, s.rng)
	newRing := pl.Ring()
	newBad := pl.BadSet()
	newOv, err := s.buildOverlay(newRing)
	if err != nil {
		t.Fatal(err)
	}
	size := cfg.Params.SizeFor(newRing.Len())
	s.sizeArenas(newRing.Len(), size, 2)
	pts := newRing.Points()
	wk, old := &s.scratch[0], s.Generation()
	s.buildID(old, wk, 3, pts[3], epochSeed, newBad, newOv, size, 2) // warm ptBuf
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		i++
		wi := i % len(pts)
		s.buildID(old, wk, wi, pts[wi], epochSeed, newBad, newOv, size, 2)
	}); allocs != 0 {
		t.Errorf("per-ID epoch step allocates %.1f/op, want 0", allocs)
	}
}

// ring_ maps an int to a spread-out ring point for test key generation.
func ring_(i int) ring.Point { return ring.Point(uint64(i) * 0x9e3779b97f4a7c15) }

// TestSystemHoldsNoGoroutines pins that construction fans out per build and
// leaves nothing behind: after New and two parallel RunEpochs, with no
// Close, the goroutine count is back where it was before New.
func TestSystemHoldsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(256)
	cfg.Workers = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpoch()
	s.RunEpoch()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after two builds, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.KeepAlive(s)
}
