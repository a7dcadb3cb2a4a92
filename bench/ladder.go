package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/epoch"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/pow"
	"repro/internal/ring"
	"repro/internal/secroute"
	"repro/internal/serve"
	"repro/internal/sim"
	disk "repro/internal/snapshot"
	"repro/tinygroups"
	"repro/tinygroups/cluster"
	"repro/tinygroups/scenario"
)

// The ladders time every layer from the outside: the benchmark replays a
// sample of the workload's own op stream at each rung, innermost call to
// outermost process, and records one span per call. A rung's self time is
// its median minus its child rung's median. Nothing here reaches inside the
// program; spans within the daemon are a later change.

// bg is the context of every in-process call: nothing here is cancelled.
var bg = context.Background()

// ladder carries the state of one traced run's per-layer measurements.
type ladder struct {
	r      *runner
	cfg    *config
	out    map[string]float64
	epoch0 time.Time
	clock  float64  // ns a (time.Now, time.Now) pair costs with nothing between
	keys   []string // the workload's sample keys
}

// sampleKeys returns the keys of the first ops of the workload's stream.
// repro-suite has no op stream; it borrows point-read's.
func sampleKeys(name string, seed uint64, cfg *config) []string {
	if name == "repro-suite" {
		name = "point-read"
	}
	g := newGenerator(name, seed, cfg)
	keys := make([]string, 0, cfg.ladderOps)
	for i := uint64(0); len(keys) < cfg.ladderOps; i++ {
		q := g.at(i)
		if q.kind == opBatch {
			keys = append(keys, q.keys...)
		} else {
			keys = append(keys, q.key)
		}
	}
	return keys[:cfg.ladderOps]
}

// clockOverhead measures what timing a call costs by timing nothing.
func clockOverhead() float64 {
	d := make([]float64, 4096)
	for i := range d {
		t0 := time.Now()
		t1 := time.Now()
		d[i] = float64(t1.Sub(t0))
	}
	return median(d)
}

// timeEach times prep(i)() for every i, three passes over the sample: the
// first warms, the rest are measured, the last also leaves one span per
// call. prep runs outside the timed region. It returns the median in ns
// with the clock's own cost taken out.
func (l *ladder) timeEach(name, parent string, n int, prep func(i int) func()) float64 {
	d := make([]float64, 0, 2*n)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			fn := prep(i)
			t0 := time.Now()
			fn()
			t1 := time.Now()
			if pass == 0 {
				continue
			}
			d = append(d, float64(t1.Sub(t0)))
			if pass == 2 {
				l.r.spans.add(span{Name: name, Parent: parent, Op: uint64(i), Start: t0.Sub(l.epoch0), End: t1.Sub(l.epoch0)})
			}
		}
	}
	return max(0, median(d)-l.clock)
}

// timeReps times fn reps times and returns the median in ms, one span each.
func (l *ladder) timeReps(name, parent string, reps int, fn func(rep int) error) (float64, error) {
	d := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := fn(i)
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d = append(d, float64(t1.Sub(t0))/1e6)
		l.r.spans.add(span{Name: name, Parent: parent, Op: uint64(i), Start: t0.Sub(l.epoch0), End: t1.Sub(l.epoch0)})
	}
	return median(d), nil
}

// allocsPer counts heap allocations per call of fn over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func heapAlloc() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// loopRung sends ops to base from cfg.clients closed-loop clients — the
// served workloads' load shape — twice over, and returns the second pass's
// median latency in µs. Every reply must be a 200 or an unreachable 502.
func (l *ladder) loopRung(name, parent, base string, ops []op) (float64, error) {
	var lats []float64
	for pass := 0; pass < 2; pass++ {
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		var firstErr error
		lats = lats[:0]
		for c := 0; c < l.cfg.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := newClient(base)
				defer cl.close()
				var mine []float64
				var spans []span
				var err error
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) {
						break
					}
					t0 := time.Now()
					status, body, derr := cl.do(ops[i])
					t1 := time.Now()
					if status != http.StatusOK && status != http.StatusBadGateway && err == nil {
						err = fmt.Errorf("%s: op %d answered %d (%v): %s", name, i, status, derr, clip(body))
					}
					mine = append(mine, float64(t1.Sub(t0))/1e3)
					spans = append(spans, span{Name: name, Parent: parent, Op: uint64(i), Start: t0.Sub(l.epoch0), End: t1.Sub(l.epoch0)})
				}
				mu.Lock()
				lats = append(lats, mine...)
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if pass == 1 {
					for _, s := range spans {
						l.r.spans.add(s)
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
	}
	return median(lats), nil
}

// nullWriter is the recorder of the handler rungs: it keeps the status and
// drops the body.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// handlerRung times h.ServeHTTP on a recorder for each op, requests built
// ahead of the timed region, and returns the median ns and allocations per
// call.
func (l *ladder) handlerRung(name, parent string, h http.Handler, ops []op) (ns, allocs float64, err error) {
	build := func(q op) *http.Request {
		method, path, body := q.request(nil)
		req, rerr := http.NewRequest(method, path, bytes.NewReader(body))
		if rerr != nil && err == nil {
			err = rerr
		}
		return req
	}
	w := &nullWriter{h: http.Header{}}
	ns = l.timeEach(name, parent, len(ops), func(i int) func() {
		req := build(ops[i])
		return func() { h.ServeHTTP(w, req) }
	})
	if err == nil && w.status != http.StatusOK && w.status != http.StatusBadGateway {
		err = fmt.Errorf("%s: handler answered %d", name, w.status)
	}
	reqs := make([]*http.Request, len(ops))
	for i, q := range ops {
		reqs[i] = build(q)
	}
	allocs = allocsPer(len(reqs), func(i int) { h.ServeHTTP(w, reqs[i]) })
	return ns, allocs, err
}

// inproc is an in-process HTTP server on a loopback listener.
type inproc struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serveInproc(h http.Handler) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inproc{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		_ = p.hs.Serve(ln) // ErrServerClosed after close
		close(p.done)
	}()
	return p, nil
}

func (p *inproc) close() {
	_ = p.hs.Close() // loopback listener: nothing to report
	<-p.done
}

// epochConfig is the epoch-layer configuration tinygroups.New derives from
// the daemon's defaults.
func epochConfig(n int) epoch.Config {
	c := epoch.DefaultConfig(n)
	c.Seed = systemSeed
	return c
}

// diskSnapshot converts the epoch layer's persisted state into the on-disk
// image, as tinygroups does at every boundary.
func diskSnapshot(st epoch.PersistedState, keys []disk.KV) *disk.Snapshot {
	sn := &disk.Snapshot{Epoch: st.Epoch, RNGCount: st.RNGCount, MintWork: 1 << 14, Keys: keys}
	sn.Config.N = len(st.Ring)
	for _, p := range st.Ring {
		sn.Ring = append(sn.Ring, uint64(p))
	}
	for _, p := range st.BadList {
		sn.BadList = append(sn.BadList, uint64(p))
	}
	for _, pg := range st.Graphs {
		g := make([]disk.Group, len(pg))
		for i, grp := range pg {
			ms := make([]disk.Member, len(grp.Members))
			for j, m := range grp.Members {
				ms[j] = disk.Member{ID: uint64(m.ID), Bad: m.Bad}
			}
			g[i] = disk.Group{Members: ms, Bad: grp.Bad, Confused: grp.Confused}
		}
		sn.Graphs = append(sn.Graphs, g)
	}
	return sn
}

// ladders fills res.Layers with every per-layer metric of BENCHMARK.json.
func (r *runner) ladders(ws workloadSpec, res *result) error {
	l := &ladder{r: r, cfg: &r.cfg, out: res.Layers, epoch0: time.Now(), clock: clockOverhead(),
		keys: sampleKeys(ws.name, r.seed, &r.cfg)}
	for _, step := range []func() error{l.genAndClient, l.readLadder, l.writeAndRecovery, l.epochLadder, l.powLadder, l.micro, l.scale} {
		if err := step(); err != nil {
			return err
		}
	}
	if ws.name != "repro-suite" { // repro-suite's own passes already timed them
		return l.scenarios()
	}
	l.zeroSkippedScenarios(scenario.Default())
	return nil
}

func lookupOps(keys []string) []op {
	ops := make([]op, len(keys))
	for i, k := range keys {
		ops[i] = op{kind: opLookup, key: k}
	}
	return ops
}

func batchOps(keys []string, size int) []op {
	var ops []op
	for lo := 0; lo+size <= len(keys); lo += size {
		ops = append(ops, op{kind: opBatch, keys: keys[lo : lo+size]})
	}
	if len(ops) == 0 {
		ops = append(ops, op{kind: opBatch, keys: keys})
	}
	return ops
}

// genAndClient measures the measuring stick: what generating an op and what
// the client itself cost, the latter against a stub that answers a canned
// 200 without doing anything.
func (l *ladder) genAndClient() error {
	g := newGenerator("point-read", l.r.seed, l.cfg)
	var buf []byte
	l.out["bench.gen_op_ns"] = l.timeEach("bench.gen_op", "", l.cfg.ladderOps, func(i int) func() {
		return func() { _, _, buf = g.at(uint64(i)).request(buf[:0]) }
	})
	canned := []byte(`{"key":"k00000","owner":"0x0","hops":0,"messages":0}` + "\n")
	stub, err := serveInproc(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned) // a dropped connection shows as a client error
	}))
	if err != nil {
		return err
	}
	defer stub.close()
	l.out["bench.client_self_us"], err = l.loopRung("bench.client_self", "", stub.url, lookupOps(l.keys))
	return err
}

// readLadder climbs from the key hash to the subprocess daemon.
func (l *ladder) readLadder() error {
	cfg, out, n := l.cfg, l.out, len(l.keys)
	lookups := lookupOps(l.keys)

	// The subprocess daemon, the top rung and what point-read measures,
	// goes first: the benchmark's heap is still as small as during a served
	// window, so its collector does not compete with the daemon for the
	// machine's two cores.
	point, _ := specOf("point-read")
	s, _, _, err := l.r.boot(point, "")
	if err != nil {
		return err
	}
	runtime.GC()
	process, err := l.loopRung("read.process", "", s.front.url, lookups)
	s.kill()
	if err != nil {
		return err
	}

	dyn, err := epoch.New(epochConfig(cfg.n))
	if err != nil {
		return err
	}
	defer dyn.Close()
	g := dyn.Generation().Graphs[0]
	rg := g.Overlay().Ring()
	chord, ok := g.Overlay().(*overlay.Chord)
	if !ok {
		return fmt.Errorf("read ladder: overlay is %T, not chord", g.Overlay())
	}

	// hashes.Func.PointString → ring.SuccessorIndex → overlay route → group search
	kh := hashes.NewFunc("tinygroups.key")
	pts := make([]ring.Point, n)
	srcs := make([]ring.Point, n)
	out["hashes.point_ns"] = l.timeEach("read.hash", "read.successor", n, func(i int) func() {
		return func() { pts[i] = kh.PointString(l.keys[i]) }
	})
	for i := range srcs {
		srcs[i] = rg.At(int(draw(l.r.seed, 99, uint64(i)) % uint64(rg.Len())))
	}
	size := g.GroupSize()
	member := make([]ring.Point, size)
	out["hashes.points_at_ns"] = l.timeEach("hashes.points_at", "", n, func(i int) func() {
		return func() { hashes.H1.PointsAt(pts[i], size, member) }
	})
	sink := 0
	out["ring.successor_ns"] = l.timeEach("read.successor", "read.search", n, func(i int) func() {
		return func() { sink += rg.SuccessorIndex(pts[i]) }
	})
	route := make([]ring.Point, 0, 64)
	out["overlay.chord_route_ns"] = l.timeEach("overlay.chord_route", "read.search", n, func(i int) func() {
		return func() { route, _ = chord.RouteInto(route[:0], srcs[i], pts[i]) }
	})
	var sc groups.SearchScratch
	var hops, msgs float64
	out["groups.search_ns"] = l.timeEach("read.search", "read.system", n, func(i int) func() {
		return func() { g.SearchOutcome(srcs[i], pts[i], &sc) }
	})
	for i := range pts {
		o := g.SearchOutcome(srcs[i], pts[i], &sc)
		hops += float64(o.Hops)
		msgs += float64(o.Messages)
	}
	out["groups.search_allocs"] = allocsPer(n, func(i int) { g.SearchOutcome(srcs[i], pts[i], &sc) })
	out["groups.search_hops"], out["groups.search_msgs"] = hops/float64(n), msgs/float64(n)
	out["groups.group_size"] = float64(size)
	out["secroute.route_ns"] = l.timeEach("secroute.route", "", n, func(i int) func() {
		return func() { secroute.Route(g, srcs[i], pts[i]) }
	})
	_ = sink

	// System.Lookup and friends, on a fresh in-memory system.
	base := heapAlloc()
	t0 := time.Now()
	sys, err := tinygroups.New(cfg.n, systemOptions()...)
	if err != nil {
		return err
	}
	out["tinygroups.new_ms"] = float64(time.Since(t0)) / 1e6
	out["tinygroups.heap_bytes_per_id"] = (heapAlloc() - base) / float64(cfg.n)
	unreachable := 0
	out["tinygroups.lookup_ns"] = l.timeEach("read.system", "read.handler", n, func(i int) func() {
		return func() { _, _ = sys.Lookup(bg, l.keys[i]) } // ErrUnreachable is an answer
	})
	for _, k := range l.keys {
		if _, err := sys.Lookup(bg, k); err != nil {
			unreachable++
		}
	}
	out["tinygroups.lookup_allocs"] = allocsPer(n, func(i int) { _, _ = sys.Lookup(bg, l.keys[i]) })
	out["tinygroups.unreachable_ratio"] = float64(unreachable) / float64(n)
	out["ladder.read.system_self_ns"] = out["tinygroups.lookup_ns"] - out["groups.search_ns"] - out["hashes.point_ns"]
	batches := batchOps(l.keys, cfg.batch)
	perBatch := l.timeEach("tinygroups.lookup_batch", "", len(batches), func(i int) func() {
		return func() { _, _ = sys.LookupBatch(bg, batches[i].keys) }
	})
	out["tinygroups.lookup_batch_ns_per_key"] = perBatch / float64(len(batches[0].keys))
	out["tinygroups.put_ns"] = l.timeEach("write.put", "write.put_durable", n, func(i int) func() {
		v := putValue(l.keys[i], uint64(i))
		return func() { _, _ = sys.Put(bg, l.keys[i], v) }
	})
	out["tinygroups.get_ns"] = l.timeEach("tinygroups.get", "", n, func(i int) func() {
		return func() { _, _, _ = sys.Get(bg, l.keys[i]) }
	})
	mint, err := l.timeReps("tinygroups.mint", "", 4*cfg.ladderReps, func(rep int) error {
		_, err := sys.Mint(bg, "miner-"+strconv.Itoa(rep))
		return err
	})
	if err != nil {
		return err
	}
	out["tinygroups.mint_ms"] = mint

	// serve.Server.Handler() on a recorder, then over loopback HTTP. The
	// server takes the system over; closing it closes the system.
	srv := serve.New(sys, serve.Config{})
	defer func() { _ = srv.Shutdown(bg) }()
	gets := make([]op, n)
	for i, k := range l.keys {
		gets[i] = op{kind: opGet, key: k}
	}
	if out["serve.lookup_handler_ns"], out["serve.lookup_handler_allocs"], err = l.handlerRung("read.handler", "read.loopback", srv.Handler(), lookups); err != nil {
		return err
	}
	if out["serve.get_handler_ns"], _, err = l.handlerRung("serve.get_handler", "", srv.Handler(), gets); err != nil {
		return err
	}
	perBatch, _, err = l.handlerRung("serve.batch_handler", "", srv.Handler(), batches)
	if err != nil {
		return err
	}
	out["serve.batch_handler_ns_per_key"] = perBatch / float64(len(batches[0].keys))
	out["ladder.read.handler_self_us"] = (out["serve.lookup_handler_ns"] - out["tinygroups.lookup_ns"]) / 1e3
	lo, err := serveInproc(srv.Handler())
	if err != nil {
		return err
	}
	defer lo.close()
	if out["serve.lookup_loopback_us"], err = l.loopRung("read.loopback", "read.process", lo.url, lookups); err != nil {
		return err
	}
	out["ladder.read.transport_self_us"] = out["serve.lookup_loopback_us"] - out["serve.lookup_handler_ns"]/1e3

	// The same loopback through an in-process cluster.Router and K=2 shards.
	if err := l.clusterRungs(lookups, batches); err != nil {
		return err
	}
	out["ladder.read.router_self_us"] = out["cluster.route_lookup_us"] - out["serve.lookup_loopback_us"]

	out["ladder.read.process_self_us"] = process - out["serve.lookup_loopback_us"]
	return nil
}

// clusterRungs times the router hop, a scattered batch and a coordinated
// advance against an in-process router over two in-process shards.
func (l *ladder) clusterRungs(lookups, batches []op) error {
	const shards = 2
	out := l.out
	var urls []string
	var handlers []http.Handler
	for i := 0; i < shards; i++ {
		sys, err := tinygroups.New(l.cfg.n, systemOptions()...)
		if err != nil {
			return err
		}
		srv := serve.New(sys, serve.Config{ShardIndex: i, ShardCount: shards})
		defer func() { _ = srv.Shutdown(bg) }()
		p, err := serveInproc(srv.Handler())
		if err != nil {
			return err
		}
		defer p.close()
		urls = append(urls, p.url)
		handlers = append(handlers, srv.Handler())
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: urls})
	if err != nil {
		return err
	}
	front, err := serveInproc(rt.Handler())
	if err != nil {
		return err
	}
	defer front.close()
	sink := 0
	out["cluster.owner_of_ns"] = l.timeEach("cluster.owner_of", "read.router", len(l.keys), func(i int) func() {
		return func() { sink += cluster.OwnerOf(l.keys[i], shards) }
	})
	_ = sink
	if out["cluster.route_lookup_us"], err = l.loopRung("read.router", "", front.url, lookups); err != nil {
		return err
	}
	if out["cluster.gather_batch_us"], err = l.loopRung("cluster.gather_batch", "", front.url, batches); err != nil {
		return err
	}
	if out["cluster.advance_ms"], err = l.timeReps("epoch.router_advance", "", min(3, l.cfg.ladderReps), func(int) error {
		_, err := rt.Advance(bg)
		return err
	}); err != nil {
		return err
	}
	wrong := 0.0
	for _, h := range handlers {
		var m struct {
			WrongShard float64 `json:"wrong_shard"`
		}
		if err := scrapeHandler(h, &m); err != nil {
			return err
		}
		wrong += m.WrongShard
	}
	if _, ok := out["cluster.wrong_shard"]; !ok { // routed-read reports its own window
		out["cluster.wrong_shard"] = wrong
	}
	return nil
}

// scrapeHandler decodes an in-process server's /metrics into v.
func scrapeHandler(h http.Handler, v any) error {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	var body bytes.Buffer
	h.ServeHTTP(&bufWriter{nullWriter{h: http.Header{}}, &body}, req)
	return json.Unmarshal(body.Bytes(), v)
}

type bufWriter struct {
	nullWriter
	b *bytes.Buffer
}

func (w *bufWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

// writeAndRecovery climbs the write ladder on a durable system — op-log
// append, durable Put, PutBatch, the put handler through the dispatcher,
// loopback — and then takes the directory it leaves behind down the
// recovery ladder.
func (l *ladder) writeAndRecovery() error {
	cfg, out, n := l.cfg, l.out, len(l.keys)
	dir := l.r.nextName("ladder-data")
	vals := make([][]byte, n)
	for i, k := range l.keys {
		vals[i] = putValue(k, uint64(i))
	}

	lg, err := disk.CreateLog(filepath.Join(l.r.workDir, "ladder.tglog"), 0)
	if err != nil {
		return err
	}
	var appendErr error
	out["snapshot.log_append_ns"] = l.timeEach("write.log_append", "write.put_durable", n, func(i int) func() {
		return func() {
			if err := lg.Append(disk.Op{Key: l.keys[i], Value: vals[i]}); err != nil {
				appendErr = err
			}
		}
	})
	if err := lg.Close(); err != nil || appendErr != nil {
		return fmt.Errorf("op-log append rung: %v / %v", appendErr, err)
	}

	sys, err := tinygroups.New(cfg.n, systemOptions(tinygroups.WithDataDir(dir))...)
	if err != nil {
		return err
	}
	out["tinygroups.put_durable_ns"] = l.timeEach("write.put_durable", "write.put_batch", n, func(i int) func() {
		return func() { _, _ = sys.Put(bg, l.keys[i], vals[i]) }
	})
	var pairs [][]tinygroups.KV
	for lo := 0; lo+cfg.batch <= n; lo += cfg.batch {
		kv := make([]tinygroups.KV, cfg.batch)
		for j := range kv {
			kv[j] = tinygroups.KV{Key: l.keys[lo+j], Value: vals[lo+j]}
		}
		pairs = append(pairs, kv)
	}
	if len(pairs) == 0 {
		kv := make([]tinygroups.KV, n)
		for j := range kv {
			kv[j] = tinygroups.KV{Key: l.keys[j], Value: vals[j]}
		}
		pairs = append(pairs, kv)
	}
	perBatch := l.timeEach("write.put_batch", "write.handler", len(pairs), func(i int) func() {
		return func() { _, _ = sys.PutBatch(bg, pairs[i]) }
	})
	out["tinygroups.put_batch_ns_per_key"] = perBatch / float64(len(pairs[0]))

	srv := serve.New(sys, serve.Config{})
	puts := make([]op, n)
	for i, k := range l.keys {
		puts[i] = op{kind: opPut, key: k, val: vals[i]}
	}
	if out["serve.put_handler_ns"], _, err = l.handlerRung("write.handler", "write.loopback", srv.Handler(), puts); err != nil {
		return err
	}
	// What the dispatcher adds: the put handler's cost over the durable Put
	// it wraps, less the handler cost a lookup pays without a dispatcher.
	out["ladder.write.dispatcher_self_us"] = ((out["serve.put_handler_ns"] - out["tinygroups.put_durable_ns"]) -
		(out["serve.lookup_handler_ns"] - out["tinygroups.lookup_ns"])) / 1e3
	var before, after serveCounters
	if err := scrapeHandler(srv.Handler(), &before); err != nil {
		return err
	}
	lo, err := serveInproc(srv.Handler())
	if err != nil {
		return err
	}
	out["serve.put_loopback_us"], err = l.loopRung("write.loopback", "", lo.url, puts)
	lo.close()
	if err != nil {
		return err
	}
	if err := scrapeHandler(srv.Handler(), &after); err != nil {
		return err
	}
	if _, ok := out["serve.mean_put_batch"]; !ok { // durable-mix reports its own window
		out["serve.mean_put_batch"], out["serve.queue_rejects"] = after.sub(before).meanPutBatch(), after.QueueRejects-before.QueueRejects
	}
	if err := srv.Shutdown(bg); err != nil { // closes sys; the op log holds every put above
		return err
	}

	// Recovery: Dir.LoadLatest → snapshot.Decode → (epoch.Restore, in the
	// epoch ladder) → tinygroups.New on the directory.
	d, err := disk.Open(dir)
	if err != nil {
		return err
	}
	var loaded *disk.LoadResult
	if out["snapshot.load_ms"], err = l.timeReps("recover.load", "recover.new", cfg.ladderReps, func(int) error {
		loaded, err = d.LoadLatest()
		return err
	}); err != nil {
		return err
	}
	raw := disk.Encode(loaded.Snapshot)
	if out["snapshot.decode_ms"], err = l.timeReps("recover.decode", "recover.load", cfg.ladderReps, func(int) error {
		_, err := disk.Decode(raw)
		return err
	}); err != nil {
		return err
	}
	logPath := d.LogPath(loaded.Snapshot.Epoch)
	replay, err := l.timeReps("recover.log_replay", "recover.load", cfg.ladderReps, func(int) error {
		_, ops, _, err := disk.ReadLog(logPath)
		if err == nil && len(ops) != len(loaded.Ops) {
			err = fmt.Errorf("op log holds %d ops, LoadLatest replayed %d", len(ops), len(loaded.Ops))
		}
		return err
	})
	if err != nil {
		return err
	}
	out["snapshot.log_replay_ns_per_op"] = replay * 1e6 / float64(max(1, len(loaded.Ops)))
	var rec *tinygroups.System
	if out["tinygroups.recover_ms"], err = l.timeReps("recover.new", "", min(3, cfg.ladderReps), func(int) error {
		if rec != nil {
			_ = rec.Close()
		}
		rec, err = tinygroups.New(cfg.n, systemOptions(tinygroups.WithDataDir(dir))...)
		if err == nil && !rec.Durability().Recovered {
			err = fmt.Errorf("New on %s bootstrapped instead of recovering", dir)
		}
		return err
	}); err != nil {
		return err
	}
	defer rec.Close()
	// The recovered system, store and all, takes the durable advance.
	out["tinygroups.advance_durable_ms"], err = l.timeReps("epoch.advance_durable", "", min(3, cfg.ladderReps), func(int) error {
		_, err := rec.AdvanceEpoch(bg)
		return err
	})
	return err
}

// serveCounters is the part of the daemon's /metrics the ladders read.
type serveCounters struct {
	Batch struct {
		PutCalls float64 `json:"put_calls"`
		PutOps   float64 `json:"put_ops"`
	} `json:"batch"`
	QueueRejects float64 `json:"queue_rejects"`
	WrongShard   float64 `json:"wrong_shard"`
}

func (a serveCounters) sub(b serveCounters) serveCounters {
	a.Batch.PutCalls -= b.Batch.PutCalls
	a.Batch.PutOps -= b.Batch.PutOps
	a.QueueRejects -= b.QueueRejects
	a.WrongShard -= b.WrongShard
	return a
}

func (a serveCounters) add(b serveCounters) serveCounters {
	a.Batch.PutCalls += b.Batch.PutCalls
	a.Batch.PutOps += b.Batch.PutOps
	a.QueueRejects += b.QueueRejects
	a.WrongShard += b.WrongShard
	return a
}

// meanPutBatch is puts per PutBatch call: what coalescing achieved.
func (a serveCounters) meanPutBatch() float64 {
	if a.Batch.PutCalls == 0 {
		return 0
	}
	return a.Batch.PutOps / a.Batch.PutCalls
}

// epochLadder times one epoch's phases from the innermost build outward.
func (l *ladder) epochLadder() error {
	cfg, out := l.cfg, l.out
	reps := min(3, cfg.ladderReps)
	ecfg := epochConfig(cfg.n)

	pl := adversary.Place(adversary.Config{N: cfg.n, Beta: ecfg.Params.Beta, Strategy: adversary.Uniform}, rand.New(rand.NewSource(systemSeed)))
	ov := overlay.NewChord(pl.Ring())
	bad := pl.BadSet()
	var err error
	if out["groups.build_ms"], err = l.timeReps("epoch.groups_build", "epoch.build", reps, func(int) error {
		groups.Build(ov, bad, ecfg.Params, hashes.H1)
		return nil
	}); err != nil {
		return err
	}

	dyn, err := epoch.New(ecfg)
	if err != nil {
		return err
	}
	defer dyn.Close()
	var commits, allocs []float64
	var st epoch.Stats
	if out["epoch.build_ms"], err = l.timeReps("epoch.build", "epoch.advance", reps, func(int) error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var err error
		st, err = dyn.BuildEpochContext(bg)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		t0 := time.Now()
		_, ok := dyn.CommitEpoch()
		commits = append(commits, float64(time.Since(t0))/1e3)
		if !ok {
			return fmt.Errorf("CommitEpoch found nothing pending")
		}
		return nil
	}); err != nil {
		return err
	}
	out["epoch.commit_us"], out["epoch.alloc_mb"] = median(commits), median(allocs)
	out["epoch.searches_per_id"] = float64(st.Searches) / float64(st.N)

	var ps epoch.PersistedState
	if out["epoch.persist_ms"], err = l.timeReps("epoch.persist", "epoch.snapshot_write", reps, func(int) error {
		ps = dyn.Persist()
		return nil
	}); err != nil {
		return err
	}
	sn := diskSnapshot(ps, nil)
	var raw []byte
	if out["snapshot.encode_ms"], err = l.timeReps("epoch.snapshot_encode", "epoch.snapshot_write", reps, func(int) error {
		raw = disk.Encode(sn)
		return nil
	}); err != nil {
		return err
	}
	out["snapshot.bytes_per_id"] = float64(len(raw)) / float64(cfg.n)
	d, err := disk.Open(l.r.nextName("ladder-snap"))
	if err != nil {
		return err
	}
	if out["snapshot.write_ms"], err = l.timeReps("epoch.snapshot_write", "epoch.advance_durable", reps, func(int) error {
		return d.WriteSnapshot(sn)
	}); err != nil {
		return err
	}
	if out["epoch.restore_ms"], err = l.timeReps("recover.restore", "recover.new", reps, func(int) error {
		restored, err := epoch.Restore(ecfg, ps)
		if err == nil {
			restored.Close()
		}
		return err
	}); err != nil {
		return err
	}

	sys, err := tinygroups.New(cfg.n, systemOptions()...)
	if err != nil {
		return err
	}
	defer sys.Close()
	out["tinygroups.advance_ms"], err = l.timeReps("epoch.advance", "epoch.advance_durable", reps, func(int) error {
		_, err := sys.AdvanceEpoch(bg)
		return err
	})
	return err
}

// powLadder times the identity puzzle: raw hash rate, one solve at the
// daemon's difficulty on one worker, one verification.
func (l *ladder) powLadder() error {
	out := l.out
	rstr := pow.EpochString(systemSeed, 0, 32)
	const attempts = 1 << 17
	t0 := time.Now()
	pow.Solve(rstr, pow.Params{Tau: 0, StringLen: 32}, rand.New(rand.NewSource(1)), attempts) // τ = 0: never solves, hashes every attempt
	out["pow.hashes_per_s"] = attempts / time.Since(t0).Seconds()
	p := pow.Params{Tau: pow.TauForWork(1 << 14), StringLen: 32}
	sols := make([]pow.Solution, 8*l.cfg.ladderReps)
	var err error
	if out["pow.solve_ms"], err = l.timeReps("pow.solve", "", len(sols), func(rep int) error {
		var ok bool
		sols[rep], ok = pow.SolveSharded(rstr, p, int64(rep+1), 1<<22, 1)
		if !ok {
			return fmt.Errorf("no solution in 2^22 attempts")
		}
		return nil
	}); err != nil {
		return err
	}
	valid := true
	out["pow.verify_ns"] = l.timeEach("pow.verify", "", len(sols), func(i int) func() {
		return func() { valid = pow.Verify(sols[i].ID, sols[i].Sigma, rstr, p) && valid }
	})
	if !valid {
		return fmt.Errorf("pow ladder: a fresh solution failed verification")
	}
	return nil
}

// ringNode sends one message to each ring neighbour per round, so
// sim.round_us is the simulator's own per-round cost.
type ringNode struct {
	left, right sim.NodeID
	out         []sim.Message
}

func (n *ringNode) Step(int, []sim.Message) []sim.Message {
	n.out = append(n.out[:0], sim.Message{To: n.left, Payload: "m"}, sim.Message{To: n.right, Payload: "m"})
	return n.out
}

// micro times the building blocks only the scenarios reach.
func (l *ladder) micro() error {
	const nodes, rounds = 256, 512
	ns := make([]sim.Node, nodes)
	adj := make([][]sim.NodeID, nodes)
	for i := range ns {
		left, right := sim.NodeID((i+nodes-1)%nodes), sim.NodeID((i+1)%nodes)
		ns[i] = &ringNode{left: left, right: right}
		adj[i] = []sim.NodeID{left, right}
	}
	nw := sim.New(ns)
	nw.SetTopology(adj)
	nw.Run(rounds) // warm
	t0 := time.Now()
	nw.Run(rounds)
	l.out["sim.round_us"] = float64(time.Since(t0)) / 1e3 / rounds

	prefs := make([]int, 12)
	for i := range prefs {
		prefs[i] = i % 2
	}
	byz := map[int]bool{3: true, 8: true}
	l.out["ba.run_us"] = l.timeEach("ba.run", "", 64*l.cfg.ladderReps, func(int) func() {
		return func() { ba.Run(len(prefs), 2, prefs, byz, "equivocate") }
	}) / 1e3
	return nil
}

// scenarios times one pass over every scenario, for the served workloads'
// traced runs (repro-suite's own passes already fill these).
func (l *ladder) scenarios() error {
	reg := scenario.Default()
	o := scenario.Options{Seed: systemSeed, Parallel: nproc(), Quick: l.cfg.suiteQuick}
	ids, secs, _, err := suitePass(reg, suiteOrder(reg, l.cfg.suiteOnly, l.r.seed), o, l.r.spans, l.epoch0, 0)
	if err != nil {
		return err
	}
	for i, id := range ids {
		l.out["scenario."+id+"_s"] = secs[i]
	}
	l.zeroSkippedScenarios(reg)
	return nil
}

// zeroSkippedScenarios reports 0 for the scenarios a smoke run leaves out,
// so that every per-layer name is present in every traced run.
func (l *ladder) zeroSkippedScenarios(reg *scenario.Registry) {
	for _, sc := range reg.List() {
		if _, ok := l.out["scenario."+sc.ID+"_s"]; !ok {
			l.out["scenario."+sc.ID+"_s"] = 0
		}
	}
}

// scale repeats the headline library numbers across populations: group
// size and hops should grow like log log n, build time about linearly.
func (l *ladder) scale() error {
	keys := l.keys[:min(len(l.keys), 1024)]
	for _, named := range l.cfg.scaleNs {
		n := named
		if l.cfg.smoke {
			n = named / 32 // same names, toy sizes
		}
		prefix := "scale.n" + strconv.Itoa(named) + "."
		base := heapAlloc()
		t0 := time.Now()
		sys, err := tinygroups.New(n, systemOptions()...)
		if err != nil {
			return fmt.Errorf("scale n=%d: %w", n, err)
		}
		l.out[prefix+"new_ms"] = float64(time.Since(t0)) / 1e6
		l.out[prefix+"heap_bytes_per_id"] = (heapAlloc() - base) / float64(n)
		l.out[prefix+"group_size"] = float64(sys.GroupSize())
		l.out[prefix+"lookup_ns"] = l.timeEach(prefix+"lookup", "", len(keys), func(i int) func() {
			return func() { _, _ = sys.Lookup(bg, keys[i]) }
		})
		t0 = time.Now()
		_, err = sys.AdvanceEpoch(bg)
		l.out[prefix+"advance_ms"] = float64(time.Since(t0)) / 1e6
		_ = sys.Close()
		if err != nil {
			return fmt.Errorf("scale n=%d: %w", n, err)
		}
	}
	return nil
}

// layerNames lists every per-layer metric in BENCHMARK.json's order; a test
// holds the two lists together.
func layerNames() []string {
	names := []string{
		"hashes.point_ns", "hashes.points_at_ns", "ring.successor_ns", "overlay.chord_route_ns", "groups.search_ns", "groups.search_allocs",
		"groups.search_hops", "groups.search_msgs", "groups.group_size", "epoch.searches_per_id", "tinygroups.unreachable_ratio",
		"groups.build_ms", "epoch.build_ms", "epoch.commit_us", "epoch.alloc_mb", "tinygroups.advance_ms",
		"epoch.persist_ms", "snapshot.encode_ms", "snapshot.write_ms", "snapshot.bytes_per_id", "tinygroups.advance_durable_ms",
		"snapshot.load_ms", "snapshot.decode_ms", "snapshot.log_replay_ns_per_op", "epoch.restore_ms", "tinygroups.recover_ms", "tinygroups.new_ms",
		"snapshot.log_append_ns", "tinygroups.put_ns", "tinygroups.put_durable_ns", "tinygroups.put_batch_ns_per_key",
		"serve.put_handler_ns", "serve.put_loopback_us", "serve.mean_put_batch", "serve.queue_rejects", "ladder.write.dispatcher_self_us",
		"tinygroups.lookup_ns", "tinygroups.lookup_allocs", "tinygroups.get_ns", "tinygroups.lookup_batch_ns_per_key", "tinygroups.heap_bytes_per_id",
		"serve.lookup_handler_ns", "serve.lookup_handler_allocs", "serve.get_handler_ns", "serve.batch_handler_ns_per_key", "serve.lookup_loopback_us",
		"ladder.read.system_self_ns", "ladder.read.handler_self_us", "ladder.read.transport_self_us", "ladder.read.process_self_us",
		"cluster.owner_of_ns", "cluster.route_lookup_us", "cluster.gather_batch_us", "cluster.advance_ms", "cluster.wrong_shard", "ladder.read.router_self_us",
		"pow.hashes_per_s", "pow.solve_ms", "pow.verify_ns", "tinygroups.mint_ms",
	}
	for i := 1; i <= 21; i++ {
		names = append(names, "scenario.e"+strconv.Itoa(i)+"_s")
	}
	names = append(names, "sim.round_us", "ba.run_us", "secroute.route_ns")
	for _, n := range []int{1024, 4096, 16384, 65536} {
		for _, m := range []string{"new_ms", "lookup_ns", "advance_ms", "heap_bytes_per_id", "group_size"} {
			names = append(names, "scale.n"+strconv.Itoa(n)+"."+m)
		}
	}
	return append(names, "bench.gen_op_ns", "bench.client_self_us", "bench.calib_sha256_mb_s", "bench.calib_drift", "trace.overhead_ratio")
}
