package main

import (
	"runtime"
	"time"
)

// config sizes one run. full is what BENCHMARK.json's numbers come from;
// smoke shrinks every dimension so the whole harness runs in seconds under
// the race detector.
type config struct {
	smoke bool
	n     int // population of every served system

	window  time.Duration // timed window of a served workload
	warmup  time.Duration // untimed lead-in (epoch-churn: warmAdvances instead)
	slices  int           // the window is cut into this many equal slices
	clients int           // closed-loop callers

	keyspace uint64 // point/bulk/churn keys are uniform over this many
	batch    int    // keys per bulk-read request
	preload  int    // durable-mix keys stored before the window

	setupReps int // repro-suite set-ups per run (served workloads: their boots)

	tailAdvances int // idle advances of a read-only workload, one per boot (heavy_p50_ms)
	warmAdvances int // epoch-churn advances before its window opens
	followed     int // window advances the oracle follows exactly

	cycles     int // durable-mix kill cycles
	cyclePuts  int // puts per cycle before the SIGKILL
	cycleReads int // acknowledged keys read back after each restart

	suitePasses int      // repro-suite passes (minimum; more if the window allows)
	suiteQuick  bool     // run scenarios in their quick sweeps
	suiteOnly   []string // smoke: the scenarios to run (nil = all of e1-e21)

	calib time.Duration // length of each drift-canary reading

	ladderOps   int   // ops replayed at every rung of a ladder
	ladderReps  int   // repetitions of the millisecond-scale rungs
	scaleNs     []int // populations of the scale.* curve (smoke: a 32nd of each, same names)
	traceSlices int   // traced workload window: alternating traced/untraced slices
}

func fullConfig(seconds int) config {
	w := time.Duration(seconds) * time.Second
	return config{
		n:       16384,
		window:  w,
		warmup:  min(2*time.Second, w/5),
		slices:  5,
		clients: 2,

		keyspace: 1 << 20,
		batch:    256,
		preload:  65536,

		setupReps: 3,

		tailAdvances: 5,
		warmAdvances: 3,
		followed:     4,

		cycles:     5,
		cyclePuts:  4096,
		cycleReads: 1024,

		suitePasses: 2,
		calib:       500 * time.Millisecond,

		ladderOps:   4096,
		ladderReps:  5,
		scaleNs:     []int{1024, 4096, 16384, 65536},
		traceSlices: 10,
	}
}

func smokeConfig() config {
	c := fullConfig(1)
	c.smoke = true
	c.n = 512
	c.window = 300 * time.Millisecond
	c.warmup = 100 * time.Millisecond
	c.preload = 1024
	c.setupReps = 2
	c.tailAdvances = 2
	c.warmAdvances = 2
	c.followed = 2
	c.cycles = 2
	c.cyclePuts = 128
	c.cycleReads = 64
	c.suiteQuick = true
	// The ten scenarios that finish in milliseconds even under the race
	// detector; the other eleven report 0 in a smoke run.
	c.suiteOnly = []string{"e6", "e9", "e11", "e12", "e13", "e14", "e16", "e17", "e18", "e19"}
	c.calib = 20 * time.Millisecond
	c.ladderOps = 128
	c.ladderReps = 2
	c.traceSlices = 4
	return c
}

// nproc is the parallelism every in-process measurement uses.
func nproc() int { return runtime.GOMAXPROCS(0) }
