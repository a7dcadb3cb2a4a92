package main

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/tinygroups"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		status, predicted int
		want              verdict
	}{
		{200, 200, verdictOK},
		{502, 502, verdictUnreachable}, // predicted unreachable: a correct answer
		{404, 404, verdictUnreachable}, // predicted not-found: a correct answer
		{502, 200, verdictFailed},      // unreachable the oracle did not predict
		{404, 200, verdictFailed},
		{200, 502, verdictFailed}, // an answer where none was possible
		{0, 200, verdictFailed},   // transport error or timeout
		{429, 200, verdictFailed},
		{503, 200, verdictFailed},
		{504, 200, verdictFailed},
		{503, 503, verdictFailed}, // a shed is a failure even if somebody predicted it
		{500, 200, verdictFailed},
		{421, 200, verdictFailed},
	} {
		if got := classify(c.status, c.predicted); got != c.want {
			t.Errorf("classify(%d, predicted %d) = %d, want %d", c.status, c.predicted, got, c.want)
		}
	}
}

// served boots an in-process daemon of n IDs and returns its URL.
func served(t *testing.T, n int) string {
	t.Helper()
	sys, err := tinygroups.New(n, systemOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sys, serve.Config{})
	p, err := serveInproc(srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	return p.url
}

// issue runs ops through a client the way a reader does, keeping every body.
func issue(t *testing.T, base string, ops []op) []rec {
	t.Helper()
	c := newClient(base)
	defer c.close()
	recs := make([]rec, len(ops))
	for i, q := range ops {
		status, body, err := c.do(q)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec{idx: uint64(i), kind: q.kind, status: status, unrch: countUnreachable(body), body: append([]byte(nil), body...)}
	}
	return recs
}

func TestOracleAgainstServer(t *testing.T) {
	cfg := smokeConfig()
	cfg.batch = 16 // the judging is per key; 256-key batches only slow the race detector down
	cfg.n = 1024   // a population whose epoch 0 has a red group: some keys are unreachable
	base := served(t, cfg.n)
	o, err := newOracle(cfg.n)
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()

	// Every op kind of the served workloads, preload first.
	preload := op{kind: opPutBatch}
	for i := 0; i < cfg.preload; i++ {
		preload.keys = append(preload.keys, keyOf('d', uint64(i)))
	}
	ops := []op{preload}
	for _, name := range []string{"point-read", "bulk-read", "durable-mix"} {
		g := newGenerator(name, 1, &cfg)
		for i := uint64(0); i < 100; i++ {
			ops = append(ops, g.at(i))
		}
	}
	// A key the oracle says is unreachable: the server's 502 must count as
	// a correct answer, not as a failure.
	predicted := 0
	for v := uint64(0); v < 1<<12 && predicted == 0; v++ {
		if _, ok := o.route(0, keyOf('k', v)); !ok {
			ops = append(ops, op{kind: opLookup, key: keyOf('k', v)})
			predicted++
		}
	}
	if predicted == 0 {
		t.Fatal("no unreachable key among the first 4096: pick another population for this test")
	}
	recs := issue(t, base, ops)
	mix := newGenerator("durable-mix", 1, &cfg)
	validPut := func(key string, idx uint64) bool {
		if idx == valuePreload {
			return true
		}
		q := mix.at(idx)
		return idx < 100 && q.kind == opPut && q.key == key
	}
	judgeAll := func(recs []rec) tally {
		var tl tally
		for i, rc := range recs {
			o.judge(&tl, rc, ops[i], []int{0}, validPut)
		}
		return tl
	}
	clean := judgeAll(recs)
	if clean.failed != 0 {
		t.Fatalf("oracle disagrees with an honest server: %s", clean.firstErr)
	}
	if clean.attempted != len(ops) {
		t.Errorf("attempted %d, issued %d", clean.attempted, len(ops))
	}
	if clean.unreachable == 0 {
		t.Errorf("a predicted 502 was not counted as unreachable")
	}

	// One corrupted reply: a sampled lookup whose hop count is off by one.
	corrupt := append([]rec(nil), recs...)
	for i, rc := range corrupt {
		if rc.kind == opLookup && rc.status == http.StatusOK {
			corrupt[i].body = bytes.Replace(rc.body, []byte(`"hops":`), []byte(`"hops":1`), 1)
			break
		}
	}
	if got := judgeAll(corrupt); got.failed != 1 {
		t.Errorf("one corrupted reply gave %d failures (%s)", got.failed, got.firstErr)
	}

	// A get answered with a value no put wrote.
	corrupt = append([]rec(nil), recs...)
	for i, rc := range corrupt {
		if rc.kind == opGet && rc.status == http.StatusOK {
			corrupt[i].body = bytes.Replace(rc.body, []byte(`"value":"`), []byte(`"value":"AAAA`), 1)
			break
		}
	}
	if got := judgeAll(corrupt); got.failed != 1 {
		t.Errorf("one wrong value gave %d failures (%s)", got.failed, got.firstErr)
	}

	// Statuses the oracle did not predict.
	for _, status := range []int{0, 404, 429, 502, 503, 504} {
		bad := append([]rec(nil), recs...)
		bad[1].status = status
		bad[1].body = []byte(`{"error":"x","code":"unreachable"}`)
		if got := judgeAll(bad); got.failed != 1 {
			t.Errorf("an unpredicted %d gave %d failures", status, got.failed)
		}
	}

	// A batch whose unreachable count is off, on a reply that was not sampled.
	bad := append([]rec(nil), recs...)
	for i, rc := range bad {
		if rc.kind == opBatch {
			bad[i].body, bad[i].unrch = nil, rc.unrch+1
			break
		}
	}
	if got := judgeAll(bad); got.failed != 1 {
		t.Errorf("a miscounted batch gave %d failures", got.failed)
	}

	if exitCode(errIncorrect) == 0 || exitCode(nil) != 0 {
		t.Errorf("exit codes: incorrect %d, clean %d", exitCode(errIncorrect), exitCode(nil))
	}
}

func TestCandidates(t *testing.T) {
	// Advance 1 runs over [10, 20], advance 2 over [20, 35].
	adv := []rec{{end: 20, lat: 10}, {end: 35, lat: 15}}
	for _, c := range []struct {
		start, end int64
		want       []int
	}{
		{0, 5, []int{0}},         // before any advance
		{12, 14, []int{0, 1}},    // advance 1 in flight: either side of its flip
		{21, 22, []int{1, 2}},    // advance 2 in flight
		{18, 22, []int{0, 1, 2}}, // spans the boundary between them
		{40, 41, []int{2}},       // after the last
	} {
		got := candidates(adv, timeDur(c.start), timeDur(c.end))
		if len(got) != len(c.want) {
			t.Errorf("candidates(%d..%d) = %v, want %v", c.start, c.end, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("candidates(%d..%d) = %v, want %v", c.start, c.end, got, c.want)
			}
		}
	}
}

func timeDur(v int64) time.Duration { return time.Duration(v) }
