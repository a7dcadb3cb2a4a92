package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/tinygroups"
)

// workloadSpec is one row of the workload table (see README.md).
type workloadSpec struct {
	name    string
	why     string
	shards  int    // 0: one daemon; K > 1: K shard daemons behind a router
	durable bool   // the daemon runs with -data-dir
	gated   opKind // the request class op_p50_ms / op_p99_ms report
	heavy   string // what heavy_p50_ms measures on this workload
	// boots is how many freshly booted systems share the timed window (see
	// runServed). Ten where a boot is cheap; five where it preloads; one for
	// epoch-churn, whose oracle follows a single system's epochs and whose
	// advance-bound numbers vary least from boot to boot.
	boots int
	// beta overrides the daemon's default adversary share (0 keeps it).
	// epoch-churn needs it: at n = 16384 the default 0.05 is past the
	// construction's stability margin and every group turns red within
	// ~10 to ~60 epochs (see README.md, "What the benchmark found").
	beta float64
}

var workloads = []workloadSpec{
	{name: "point-read", boots: 10, gated: opLookup, heavy: "idle in-memory /v1/epoch/advance",
		why: "Single lookups: per-request cost (HTTP, JSON, handler) is ~99% of the time and the search core ~1us; a 2^20 uniform keyspace leaves a reply cache nothing to hit."},
	{name: "bulk-read", boots: 10, gated: opBatch, heavy: "idle in-memory /v1/epoch/advance",
		why: "256-key batch lookups amortise per-request overhead 256x, so LookupBatch fan-out, group search and reply encoding dominate: point-read's mirror image."},
	{name: "durable-mix", boots: 5, durable: true, gated: opPut, heavy: "SIGKILL to recovered /healthz (recover_ms)",
		why: "50/50 put/get over 65536 preloaded keys on a data dir, then 5 kill cycles: dispatcher, writer mutex, op-log append and recovery, which the read workloads bypass."},
	{name: "epoch-churn", boots: 1, durable: true, beta: 0.02, gated: opLookup, heavy: "/v1/epoch/advance under read load, snapshot included (advance_p50_ms)",
		why: "One client looks up while another advances back to back: epoch construction, group build and the boundary snapshot do the work; reads show only interference."},
	{name: "routed-read", boots: 10, shards: 2, gated: opLookup, heavy: "coordinated two-phase advance through the router",
		why: "point-read's exact op stream through tinygroupsrouter and 2 shards: the difference from point-read is the router hop, rss_mb the replica cost."},
	{name: "repro-suite", heavy: "one full pass over e1-e21 (suite_s, in ms)",
		why: "Every paper scenario e1-e21 at full sweep, in process: the only workload reaching sim, ba, secroute, baseline, adversary and the PoW lottery; transport changes must not move it."},
}

func specOf(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// sut is a booted system under test.
type sut struct {
	procs   []*proc // shard daemons, then the router if any
	front   *proc   // what the clients talk to
	dataDir string
}

func (s *sut) kill() {
	for _, p := range s.procs {
		p.kill()
	}
}

func (s *sut) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range s.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("rss of %s: %w", p.name, err)
		}
		sum += mb
	}
	return sum, nil
}

// runner carries what every workload of one invocation shares.
type runner struct {
	cfg     config
	seed    uint64
	daemon  string // built binaries
	router  string
	workDir string
	hc      *http.Client // health and metrics scrapes
	seq     int          // names log files and data dirs
	spans   *spanLog     // nil unless tracing
	tamper  func([]rec)  // tests only: edit completed ops before judging

	canaryState string // where settle remembers the best canary reading
}

func (r *runner) nextName(prefix string) string {
	r.seq++
	return filepath.Join(r.workDir, prefix+"-"+strconv.Itoa(r.seq))
}

// boot starts spec's processes and waits until the front one is ready. A
// non-empty dataDir restarts on existing state; otherwise durable workloads
// get a fresh directory.
func (r *runner) boot(spec workloadSpec, dataDir string) (*sut, health, time.Duration, error) {
	s := &sut{dataDir: dataDir}
	if spec.durable && dataDir == "" {
		s.dataDir = r.nextName("data")
	}
	common := []string{"-n", strconv.Itoa(r.cfg.n), "-seed", strconv.Itoa(systemSeed)}
	if spec.beta != 0 {
		common = append(common, "-beta", strconv.FormatFloat(spec.beta, 'g', -1, 64))
	}
	t0 := time.Now()
	fail := func(err error) (*sut, health, time.Duration, error) {
		s.kill()
		return nil, health{}, 0, err
	}
	if spec.shards <= 1 {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		args := common
		if s.dataDir != "" {
			args = append(args, "-data-dir", s.dataDir)
		}
		p, err := startProc("tinygroupsd", r.daemon, addr, r.nextName("daemon")+".log", args...)
		if err != nil {
			return fail(err)
		}
		s.procs, s.front = []*proc{p}, p
	} else {
		var urls []string
		for i := 0; i < spec.shards; i++ {
			addr, err := freeAddr()
			if err != nil {
				return fail(err)
			}
			args := append(common[:len(common):len(common)], "-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(spec.shards))
			p, err := startProc("shard"+strconv.Itoa(i), r.daemon, addr, r.nextName("shard")+".log", args...)
			if err != nil {
				return fail(err)
			}
			s.procs = append(s.procs, p)
			urls = append(urls, p.url)
		}
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		p, err := startProc("tinygroupsrouter", r.router, addr, r.nextName("router")+".log", "-shards", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		s.procs, s.front = append(s.procs, p), p
	}
	h, err := s.front.waitReady(r.hc, 60*time.Second)
	if err != nil {
		return fail(err)
	}
	return s, h, time.Since(t0), nil
}

// preload stores cfg.preload keys through /v1/put/batch and judges the
// replies. It is part of set-up, so its time counts in setup_s.
func (r *runner) preload(s *sut, o *oracle, t *tally) {
	c := newClient(s.front.url)
	defer c.close()
	const chunk = 4096 // the daemon's per-call cap
	for lo := 0; lo < r.cfg.preload; lo += chunk {
		hi := min(lo+chunk, r.cfg.preload)
		q := op{kind: opPutBatch, keys: make([]string, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			q.keys = append(q.keys, keyOf('d', uint64(i)))
		}
		status, body, _ := c.do(q)
		o.judge(t, rec{idx: uint64(lo), kind: opPutBatch, status: status, unrch: countUnreachable(body), body: append([]byte(nil), body...)}, q, []int{0}, nil)
	}
}

// load is the closed-loop traffic of one served run.
type load struct {
	gen     generator
	epoch0  time.Time
	next    atomic.Uint64 // next op index of the shared stream
	stop    atomic.Bool
	tracing atomic.Bool // client spans on (traced run only)
	wg      sync.WaitGroup
	mu      sync.Mutex
	recs    []rec // merged as clients exit
	spans   *spanLog

	advances atomic.Int64 // completed by the advancing client
	advMu    sync.Mutex
	advRecs  []rec
	advFPs   map[int]string // /healthz fingerprint after advance j, the first few only
}

// reader runs one closed-loop client over the shared stream until stop.
func (l *load) reader(base string) {
	defer l.wg.Done()
	c := newClient(base)
	defer c.close()
	recs := make([]rec, 0, 1<<16)
	for !l.stop.Load() {
		idx := l.next.Add(1) - 1
		q := l.gen.at(idx)
		t0 := time.Now()
		status, body, _ := c.do(q)
		t1 := time.Now()
		rc := rec{idx: idx, kind: q.kind, status: status, end: t1.Sub(l.epoch0), lat: t1.Sub(t0)}
		if q.kind == opBatch {
			rc.unrch = countUnreachable(body)
		}
		// Keep 1 body in 64, and every reply that is not a 200: those are
		// rare and the classifier needs their error code.
		if idx%sampleEvery == 0 || status != http.StatusOK {
			rc.body = append([]byte(nil), body...)
		}
		recs = append(recs, rc)
		if l.tracing.Load() {
			l.spans.add(span{Name: "client." + q.kind.String(), Parent: "workload", Op: idx, Start: t0.Sub(l.epoch0), End: rc.end})
		}
	}
	l.mu.Lock()
	l.recs = append(l.recs, recs...)
	l.mu.Unlock()
}

// advancer posts /v1/epoch/advance back to back until stop. After each of
// the first fpUntil advances it reads /healthz, so the oracle's generations
// can be compared with the served ones.
func (l *load) advancer(base string, hc *http.Client, fpUntil int) {
	defer l.wg.Done()
	c := newClient(base)
	defer c.close()
	for j := uint64(1); !l.stop.Load(); j++ {
		t0 := time.Now()
		status, body, _ := c.do(op{kind: opAdvance})
		t1 := time.Now()
		rc := rec{idx: j, kind: opAdvance, status: status, end: t1.Sub(l.epoch0), lat: t1.Sub(t0)}
		if status != http.StatusOK {
			rc.body = append([]byte(nil), body...)
		}
		l.advMu.Lock()
		l.advRecs = append(l.advRecs, rc)
		if int(j) <= fpUntil {
			if h, code, err := getHealth(hc, base); err == nil && code == http.StatusOK && h.Epoch == int64(j) {
				l.advFPs[int(j)] = h.Fingerprint
			}
		}
		l.advMu.Unlock()
		l.advances.Add(1)
		if status != http.StatusOK {
			time.Sleep(10 * time.Millisecond) // a failing daemon must not spin this loop
		}
	}
}

// candidates lists the epochs that may have answered a read in flight over
// [start, end], given the advancing client's timeline: epoch e can be live
// from the start of advance e to the end of advance e+1.
func candidates(adv []rec, start, end time.Duration) []int {
	var out []int
	for e := 0; e <= len(adv); e++ {
		from := time.Duration(-1 << 62)
		if e > 0 {
			from = adv[e-1].end - adv[e-1].lat
		}
		until := time.Duration(1 << 62)
		if e < len(adv) {
			until = adv[e].end
		}
		if from <= end && until >= start {
			out = append(out, e)
		}
	}
	return out
}

// sliceAcc collects per-slice readings over the boots of a run and reduces
// them to the medians the end-to-end metrics report.
type sliceAcc struct {
	tput     []float64
	counted  int
	p50      map[opKind][]float64
	tail     map[opKind][]float64
	total    map[opKind]int
	tracedN  [2]int // ops completed with client spans off / on
	slicesOf int    // slices per boot window
}

func newSliceAcc(slicesPerBoot int) *sliceAcc {
	return &sliceAcc{p50: map[opKind][]float64{}, tail: map[opKind][]float64{}, total: map[opKind]int{}, slicesOf: slicesPerBoot}
}

// add cuts the ops that completed in [w0, w0+window) into equal slices and
// keeps each slice's throughput (of the ops counted) and, per op kind, its
// median and tail latency in ms.
func (a *sliceAcc) add(recs []rec, counted func(rec) bool, w0, window time.Duration) {
	per := window / time.Duration(a.slicesOf)
	type bucket struct {
		n    int
		lats map[opKind][]float64
	}
	bs := make([]bucket, a.slicesOf)
	for i := range bs {
		bs[i].lats = map[opKind][]float64{}
	}
	for _, r := range recs {
		if r.end < w0 || r.end >= w0+window {
			continue
		}
		b := &bs[min(int((r.end-w0)/per), a.slicesOf-1)]
		if counted(r) {
			b.n++
		}
		b.lats[r.kind] = append(b.lats[r.kind], float64(r.lat)/1e6)
		a.total[r.kind]++
	}
	for _, b := range bs {
		a.tput = append(a.tput, float64(b.n)/per.Seconds())
		a.counted += b.n
		for k, l := range b.lats {
			sort.Float64s(l)
			a.p50[k] = append(a.p50[k], quantile(l, 0.5))
			a.tail[k] = append(a.tail[k], quantile(l, tailQ(len(l))))
		}
	}
}

func (a *sliceAcc) throughput() stat { return statOf(a.tput, a.counted) }

// latency returns the median-of-slices p50 and tail of one op kind.
func (a *sliceAcc) latency(k opKind) (p50, tail stat) {
	return statOf(a.p50[k], a.total[k]), statOf(a.tail[k], a.total[k])
}

// runServed runs one of the five served workloads end to end.
//
// The timed window is spread over spec.boots freshly booted systems, one
// share each. How the kernel happens to place a daemon's threads and pages
// at boot decides a good part of its speed for as long as it lives (on the
// reference box routed-read sits anywhere between 3.5k and 5.3k req/s from
// one boot to the next, and stays there); a run that measured one boot
// would report that draw, not the system. The same boots are the set-up
// repetitions behind setup_s.
func (r *runner) runServed(spec workloadSpec) (*result, error) {
	cfg := &r.cfg
	res := newResult(spec.name)
	var sysOpts []tinygroups.Option
	if spec.beta != 0 {
		sysOpts = append(sysOpts, tinygroups.WithBeta(spec.beta))
	}
	o, err := newOracle(cfg.n, sysOpts...)
	if err != nil {
		return nil, err
	}
	defer o.close()
	var t tally
	churn := spec.name == "epoch-churn"
	boots := spec.boots
	if cfg.smoke {
		boots = min(boots, 2)
	}
	share := cfg.window / time.Duration(boots)
	acc := newSliceAcc(max(1, cfg.slices/boots))
	traceSubs := max(2, cfg.traceSlices/boots) // traced runs: sub-slices of each share, spans on in every other
	l := &load{gen: newGenerator(spec.name, r.seed, cfg), epoch0: time.Now(), spans: r.spans, advFPs: map[int]string{}}
	counted := func(rc rec) bool { return rc.kind != opAdvance }

	var s *sut
	defer func() {
		if s != nil {
			s.kill()
		}
	}()
	var setups, rss, heavies []float64
	var served serveCounters // summed over the windows, traced runs only
	for b := 0; b < boots; b++ {
		if s != nil {
			s.kill()
			if s.dataDir != "" {
				if err := os.RemoveAll(s.dataDir); err != nil {
					return nil, err
				}
			}
		}
		var h health
		var took time.Duration
		s, h, took, err = r.boot(spec, "")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if spec.name == "durable-mix" {
			r.preload(s, o, &t)
		}
		setups = append(setups, (took + time.Since(t0)).Seconds())
		if h.Epoch != 0 || h.Fingerprint != o.fps[0] {
			t.fail("%s: boot serves epoch %d fingerprint %.12s, oracle has epoch 0 %.12s", spec.name, h.Epoch, h.Fingerprint, o.fps[0])
		}
		if s.dataDir != "" {
			res.DataDirFS = fsType(s.dataDir)
		}

		// Traffic: warm-up, then this boot's share of the window.
		var before serveCounters
		if r.spans != nil {
			if before, err = r.scrapeServe(s); err != nil {
				return nil, err
			}
		}
		from := len(l.recs)
		l.stop.Store(false)
		readers := cfg.clients
		if churn {
			readers--
			l.wg.Add(1)
			go l.advancer(s.front.url, r.hc, cfg.warmAdvances+cfg.followed)
		}
		for i := 0; i < readers; i++ {
			l.wg.Add(1)
			go l.reader(s.front.url)
		}
		if churn {
			deadline := time.Now().Add(60 * time.Second)
			for l.advances.Load() < int64(cfg.warmAdvances) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		} else {
			time.Sleep(cfg.warmup / time.Duration(boots))
		}
		w0 := time.Since(l.epoch0)
		var tracedFrom []time.Duration // starts of the sub-slices with client spans on
		if r.spans != nil {
			// Traced run: client spans on in every other sub-slice, the order
			// alternating from boot to boot; the untraced ones are the
			// baseline trace.overhead_ratio compares against.
			for i := 0; i < traceSubs; i++ {
				on := (i+b)%2 == 1
				l.tracing.Store(on)
				if on {
					tracedFrom = append(tracedFrom, time.Since(l.epoch0))
				}
				time.Sleep(share / time.Duration(traceSubs))
			}
			l.tracing.Store(false)
		} else {
			time.Sleep(share)
		}
		mb, rssErr := s.peakRSSMB()
		l.stop.Store(true)
		l.wg.Wait()
		if rssErr != nil {
			return nil, rssErr
		}
		rss = append(rss, mb)
		window := l.recs[from:]
		if churn {
			window = append(append([]rec(nil), window...), l.advRecs...)
		}
		acc.add(window, counted, w0, share)
		if r.spans != nil {
			sub := share / time.Duration(traceSubs)
			for _, rc := range l.recs[from:] {
				if rc.end < w0 || rc.end >= w0+share {
					continue
				}
				on := 0
				for _, tf := range tracedFrom {
					if rc.end >= tf && rc.end < tf+sub {
						on = 1
					}
				}
				acc.tracedN[on]++
			}
			after, err := r.scrapeServe(s)
			if err != nil {
				return nil, err
			}
			served = served.add(after.sub(before))
		}

		// The heavyweight operation of a read-only workload: one advance of
		// the now idle system, on every other boot.
		if !churn && spec.name != "durable-mix" && b%2 == 0 && len(heavies) < cfg.tailAdvances {
			heavies = append(heavies, r.idleAdvance(s, o, &t))
		}
	}
	res.Metrics["setup_s"] = statOf(setups, len(setups))
	res.Metrics["rss_mb"] = statOf(rss, len(s.procs))

	// The oracle recomputes every op.
	if churn {
		if err := o.advanceTo(cfg.warmAdvances + cfg.followed); err != nil {
			return nil, err
		}
		for e := 1; e <= min(o.known(), len(l.advRecs)); e++ {
			if fp, ok := l.advFPs[e]; !ok || fp != o.fps[e] {
				t.fail("epoch-churn: served epoch %d has fingerprint %.12s, oracle %.12s", e, fp, o.fps[e])
			}
		}
		for _, a := range l.advRecs {
			o.judge(&t, a, op{kind: opAdvance}, nil, nil)
		}
	}
	issued := l.next.Load()
	validPut := func(key string, idx uint64) bool {
		if idx == valuePreload {
			return key[0] == 'd'
		}
		if idx >= issued {
			return false
		}
		q := l.gen.at(idx)
		return q.kind == opPut && q.key == key
	}
	sort.Slice(l.recs, func(i, j int) bool { return l.recs[i].idx < l.recs[j].idx })
	if r.tamper != nil {
		r.tamper(l.recs)
	}
	digest := sha256.New()
	sampled := 0
	for _, rc := range l.recs {
		epochs := []int{0}
		if churn {
			epochs = candidates(l.advRecs, rc.end-rc.lat, rc.end)
		}
		o.judge(&t, rc, l.gen.at(rc.idx), epochs, validPut)
		if rc.idx%sampleEvery == 0 && sampled < digestSamples {
			digest.Write(rc.body)
			sampled++
		}
	}
	res.SampleDigest = hex.EncodeToString(digest.Sum(nil)[:8])
	res.Sampled = sampled

	// Window metrics.
	res.Metrics["throughput_ops_s"] = acc.throughput()
	res.Metrics["op_p50_ms"], res.Metrics["op_p99_ms"] = acc.latency(spec.gated)
	if spec.gated == opPut {
		res.Detail["write_p50_ms"], res.Detail["write_p99_ms"] = acc.latency(opPut)
		res.Detail["read_p50_ms"], res.Detail["read_p99_ms"] = acc.latency(opGet)
	}
	if r.spans != nil {
		if acc.tracedN[0] > 0 {
			res.Layers["trace.overhead_ratio"] = float64(acc.tracedN[1]) / float64(acc.tracedN[0])
		}
		// The served windows' own counters, where the workload has them;
		// the ladders fill these in for the others.
		if spec.gated == opPut {
			res.Layers["serve.mean_put_batch"], res.Layers["serve.queue_rejects"] = served.meanPutBatch(), served.QueueRejects
		}
		if spec.shards > 1 {
			res.Layers["cluster.wrong_shard"] = served.WrongShard
		}
	}

	// The heavyweight operation of the other workloads.
	heavy := statOf(heavies, len(heavies))
	switch {
	case churn:
		heavy, _ = acc.latency(opAdvance)
		res.Detail["advances"] = stat{Value: float64(heavy.N), N: heavy.N}
		r.checkRestart(spec, s, &t)
	case spec.name == "durable-mix":
		heavy, s, err = r.killCycles(spec, s, o, &t)
		if err != nil {
			return nil, err
		}
	}
	res.Metrics["heavy_p50_ms"] = heavy

	// Theorem 3 concedes an ε of searches; a system conceding more than
	// this has lost its robustness, and its timings describe a wreck.
	if float64(t.unreachable) > maxUnreachable*float64(t.attempted) {
		t.fail("%s: %d of %d ops were unreachable: search success fell below 1-ε (ε = %v)", spec.name, t.unreachable, t.attempted, maxUnreachable)
	}
	res.absorb(t)
	return res, nil
}

// maxUnreachable is the ε the benchmark tolerates: a healthy system at these
// sizes concedes about 0.001.
const maxUnreachable = 0.05

// digestSamples bounds the sampled replies hashed into SampleDigest: the
// first 64 samples (ops 0, 64, ..., 4032) complete in every full run, so
// point-read's and routed-read's digests are comparable.
const digestSamples = 64

// idleAdvance posts one advance at the idle system after a read-only window
// and returns its latency in ms. The oracle follows, so the served
// fingerprint is checked against its epoch 1.
func (r *runner) idleAdvance(s *sut, o *oracle, t *tally) float64 {
	c := newClient(s.front.url)
	defer c.close()
	t0 := time.Now()
	status, body, _ := c.do(op{kind: opAdvance})
	ms := float64(time.Since(t0)) / 1e6
	o.judge(t, rec{idx: 1, kind: opAdvance, status: status, body: append([]byte(nil), body...)}, op{kind: opAdvance}, nil, nil)
	if err := o.advanceTo(1); err != nil {
		t.fail("%v", err)
		return ms
	}
	h, code, err := getHealth(r.hc, s.front.url)
	if err != nil || code != http.StatusOK || h.Fingerprint != o.fps[1] {
		t.fail("after one advance: /healthz code %d err %v fingerprint %.12s, oracle %.12s", code, err, h.Fingerprint, o.fps[1])
	}
	return ms
}

// checkRestart SIGKILLs a durable daemon and restarts it on its data dir:
// it must come back recovered, at the same epoch and fingerprint.
func (r *runner) checkRestart(spec workloadSpec, s *sut, t *tally) {
	before, code, err := getHealth(r.hc, s.front.url)
	if err != nil || code != http.StatusOK {
		t.fail("%s: /healthz before restart: code %d err %v", spec.name, code, err)
		return
	}
	s.kill()
	s2, after, _, err := r.boot(spec, s.dataDir)
	if err != nil {
		t.fail("%s: restart on the data dir: %v", spec.name, err)
		return
	}
	*s = *s2
	if !after.Recovered || after.Epoch != before.Epoch || after.Fingerprint != before.Fingerprint {
		t.fail("%s: restart recovered=%v epoch %d fingerprint %.12s, before the kill epoch %d %.12s",
			spec.name, after.Recovered, after.Epoch, after.Fingerprint, before.Epoch, before.Fingerprint)
	}
}

// killCycles runs durable-mix's crash loop: a fixed number of fresh puts,
// SIGKILL, restart on the same directory, wait for a recovered /healthz,
// read acknowledged keys back. It returns the recovery-time stat and the
// last restarted system.
func (r *runner) killCycles(spec workloadSpec, s *sut, o *oracle, t *tally) (stat, *sut, error) {
	cfg := &r.cfg
	var recoveries []float64
	var acked []string // every cycle's acknowledged keys
	for cyc := 0; cyc < cfg.cycles; cyc++ {
		// Fresh keys, split over the closed-loop clients.
		var mu sync.Mutex
		var wg sync.WaitGroup
		var next atomic.Uint64
		for i := 0; i < cfg.clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := newClient(s.front.url)
				defer c.close()
				var mine []string
				var mt tally
				for {
					i := next.Add(1) - 1
					if i >= uint64(cfg.cyclePuts) {
						break
					}
					v := uint64(cyc)<<16 | i
					key := keyOf('c', v)
					q := op{kind: opPut, key: key, val: putValue(key, valueCycle|v)}
					status, body, _ := c.do(q)
					o.judge(&mt, rec{idx: v, kind: opPut, status: status, body: append([]byte(nil), body...)}, q, []int{0}, nil)
					if status == http.StatusOK {
						mine = append(mine, key)
					}
				}
				mu.Lock()
				acked = append(acked, mine...)
				t.add(mt)
				mu.Unlock()
			}()
		}
		wg.Wait()

		t0 := time.Now()
		s.kill()
		s2, h, _, err := r.boot(spec, s.dataDir)
		if err != nil {
			return stat{}, s, fmt.Errorf("durable-mix cycle %d: restart: %w", cyc, err)
		}
		recoveries = append(recoveries, float64(time.Since(t0))/1e6)
		s = s2
		if !h.Recovered || h.Fingerprint != o.fps[0] {
			t.fail("durable-mix cycle %d: restart recovered=%v fingerprint %.12s, oracle %.12s", cyc, h.Recovered, h.Fingerprint, o.fps[0])
		}

		// Read back a stride sample of everything acknowledged so far.
		sort.Strings(acked)
		c := newClient(s.front.url)
		stride := max(1, len(acked)/cfg.cycleReads)
		for i := 0; i < len(acked); i += stride {
			key := acked[i]
			q := op{kind: opGet, key: key}
			status, body, _ := c.do(q)
			want := func(k string, idx uint64) bool {
				v, err := strconv.ParseUint(k[1:], 16, 64)
				return err == nil && idx == valueCycle|v
			}
			o.judge(t, rec{idx: uint64(i), kind: opGet, status: status, body: append([]byte(nil), body...)}, q, []int{0}, want)
		}
		c.close()
	}
	return statOf(recoveries, len(recoveries)), s, nil
}

// scrapeServe sums the /metrics counters of the system's daemons: what put
// coalescing achieved, what was shed, what was misrouted.
func (r *runner) scrapeServe(s *sut) (serveCounters, error) {
	var sum serveCounters
	for _, p := range s.procs {
		if p.name == "tinygroupsrouter" {
			continue
		}
		resp, err := r.hc.Get(p.url + "/metrics")
		if err != nil {
			return sum, fmt.Errorf("scrape %s: %w", p.name, err)
		}
		var m serveCounters
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("scrape %s: %w", p.name, err)
		}
		sum = sum.add(m)
	}
	return sum, nil
}
