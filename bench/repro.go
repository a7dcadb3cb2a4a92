package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/tinygroups/scenario"
)

// hashHandler digests a scenario's streamed output, so passes can be
// compared without keeping tables.
type hashHandler struct{ h [32]byte }

func (hh *hashHandler) mix(tag byte, parts []string) {
	d := sha256.New()
	d.Write(hh.h[:])
	d.Write([]byte{tag})
	for _, p := range parts {
		d.Write([]byte(strconv.Itoa(len(p))))
		d.Write([]byte{':'})
		d.Write([]byte(p))
	}
	d.Sum(hh.h[:0])
}

func (hh *hashHandler) Header(cols ...string) { hh.mix('h', cols) }
func (hh *hashHandler) Row(cells ...string)   { hh.mix('r', cells) }
func (hh *hashHandler) Note(text string)      { hh.mix('n', []string{text}) }

// suiteOrder lists the scenarios to run, shuffled by seed. The scenarios'
// own seed is fixed like every other system seed — their sweeps, and so the
// work in a pass, must not vary with the benchmark's seed — so the order of
// the pass is the input the seed draws.
func suiteOrder(reg *scenario.Registry, only []string, seed uint64) []scenario.Scenario {
	var list []scenario.Scenario
	for _, sc := range reg.List() {
		if only == nil || slices.Contains(only, sc.ID) {
			list = append(list, sc)
		}
	}
	for i := len(list) - 1; i > 0; i-- {
		j := int(draw(seed, saltSuite, uint64(i)) % uint64(i+1))
		list[i], list[j] = list[j], list[i]
	}
	return list
}

// suitePass runs the scenarios once, in the given order, and returns
// per-scenario wall times and output digests.
func suitePass(reg *scenario.Registry, order []scenario.Scenario, o scenario.Options, spans *spanLog, epoch0 time.Time, pass int) (ids []string, secs []float64, digests []string, err error) {
	for _, sc := range order {
		var hh hashHandler
		t0 := time.Now()
		if err := reg.Run(context.Background(), sc.ID, o, &hh); err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		if spans != nil {
			spans.add(span{Name: "scenario." + sc.ID, Parent: "workload", Op: uint64(pass), Start: t0.Sub(epoch0), End: t1.Sub(epoch0)})
		}
		ids = append(ids, sc.ID)
		secs = append(secs, t1.Sub(t0).Seconds())
		digests = append(digests, hex.EncodeToString(hh.h[:]))
	}
	return ids, secs, digests, nil
}

// runRepro is the repro-suite workload: the paper-reproduction user's job,
// in process. One op is one scenario run.
func (r *runner) runRepro() (*result, error) {
	cfg := &r.cfg
	res := newResult("repro-suite")
	opts := scenario.Options{Seed: systemSeed, Parallel: nproc(), Quick: cfg.suiteQuick}

	// Set-up: build the registry and run one quick-sweep pass, which pages
	// the heap in and fills the lazily built tables the full sweep reuses.
	var reg *scenario.Registry
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		t0 := time.Now()
		reg = scenario.Default()
		warm := opts
		warm.Quick = true
		if _, _, _, err := suitePass(reg, suiteOrder(reg, cfg.suiteOnly, r.seed), warm, nil, t0, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = statOf(setups, len(setups))

	// Passes: at least suitePasses, more while the window has room for one.
	order := suiteOrder(reg, cfg.suiteOnly, r.seed)
	epoch0 := time.Now()
	var passSecs, tput, p50, slowest, rss []float64
	var first []string
	var t tally
	perScenario := map[string][]float64{}
	for pass := 0; ; pass++ {
		// rss_mb is this process's own peak over a pass. Every pass starts
		// from a collected heap and a peak counter set back to the current
		// RSS, so that neither the previous pass's garbage nor what ran in
		// the process earlier counts; where the kernel refuses the reset,
		// the lifetime peak stands.
		debug.FreeOSMemory()
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
		t0 := time.Now()
		// A traced run records scenario spans on odd passes only, so the
		// even ones are the baseline trace.overhead_ratio compares against.
		spans := r.spans
		if pass%2 == 0 {
			spans = nil
		}
		ids, secs, digests, err := suitePass(reg, order, opts, spans, epoch0, pass)
		if err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		mb, err := peakRSSOf("self")
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
		passSecs = append(passSecs, took)
		tput = append(tput, float64(len(ids))/took)
		s := append([]float64(nil), secs...)
		sort.Float64s(s)
		p50 = append(p50, 1e3*quantile(s, 0.5))
		slowest = append(slowest, 1e3*s[len(s)-1])
		for i, id := range ids {
			perScenario[id] = append(perScenario[id], secs[i])
			t.attempted++
			if pass == 0 {
				continue
			}
			if digests[i] != first[i] {
				t.fail("repro-suite: %s pass %d produced different rows than pass 0", id, pass)
			}
		}
		if pass == 0 {
			first = digests
		}
		elapsed := time.Since(epoch0).Seconds()
		if pass+1 >= cfg.suitePasses && elapsed+took/2 >= cfg.window.Seconds() {
			break
		}
	}
	runs := t.attempted
	res.Metrics["throughput_ops_s"] = statOf(tput, runs)
	res.Metrics["op_p50_ms"] = statOf(p50, runs)
	res.Metrics["op_p99_ms"] = statOf(slowest, runs)
	heavy := make([]float64, len(passSecs))
	for i, s := range passSecs {
		heavy[i] = 1e3 * s
	}
	res.Metrics["heavy_p50_ms"] = statOf(heavy, len(heavy))
	res.Detail["suite_s"] = statOf(passSecs, len(passSecs))
	res.Metrics["rss_mb"] = statOf(rss, 1)
	if r.spans != nil {
		for id, secs := range perScenario {
			res.Layers["scenario."+id+"_s"] = median(secs)
		}
		var traced, plain []float64
		for i, v := range tput {
			if i%2 == 1 {
				traced = append(traced, v)
			} else {
				plain = append(plain, v)
			}
		}
		res.Layers["trace.overhead_ratio"] = median(traced) / median(plain)
	}
	res.absorb(t)
	return res, nil
}
