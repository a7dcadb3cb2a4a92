package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// describe renders an op the way the golden below spells it.
func describe(q op) string {
	switch q.kind {
	case opBatch:
		return fmt.Sprintf("batch[%d] %s..%s", len(q.keys), q.keys[0], q.keys[len(q.keys)-1])
	case opPut:
		return fmt.Sprintf("put %s=%x", q.key, q.val)
	}
	return q.kind.String() + " " + q.key
}

// TestStreamGolden pins the first 8 ops of every served workload for seed
// 1: a change to the generator changes every number the benchmark has ever
// reported, so it must be deliberate.
func TestStreamGolden(t *testing.T) {
	cfg := fullConfig(10)
	golden := map[string]string{
		"point-read": `lookup k9734a
lookup k9f566
lookup kbc2b1
lookup kb6512
lookup k75c3c
lookup k651a6
lookup k6ce67
lookup kff704`,
		"bulk-read": `batch[256] k1f0c5..ke9c99
batch[256] k90d25..kb487b
batch[256] kde93c..k717d3
batch[256] k2c86c..k1e34f
batch[256] k209ef..k61dc4
batch[256] k865cc..k53637
batch[256] k115ef..k1c73e
batch[256] k3b6a0..k203fd`,
		"durable-mix": `put d0cb6e=d021fac4d6036ce20000000000000000
put d050c1=1c6ac25a53670e470000000000000001
get d00294
put d00670=18c6b9cda96698530000000000000003
put d00893=d0e7d2e6ea9632b00000000000000004
put d035f9=5becb7c764be5f820000000000000005
get d0c3cb
put d0f5e2=4846b5e95929ddc50000000000000007`,
		"epoch-churn": `lookup k43d86
lookup k24fa7
lookup k58aad
lookup k9e4d8
lookup kfb3ca
lookup k6a4b4
lookup k55ee6
lookup kadb8e`,
	}
	golden["routed-read"] = golden["point-read"]
	for _, name := range []string{"point-read", "bulk-read", "durable-mix", "epoch-churn", "routed-read"} {
		g := newGenerator(name, 1, &cfg)
		var lines []string
		for i := uint64(0); i < 8; i++ {
			lines = append(lines, describe(g.at(i)))
		}
		got := strings.Join(lines, "\n")
		if got != golden[name] {
			t.Errorf("%s: first 8 ops of seed 1 changed:\n%s", name, got)
		}
	}
}

// TestStreamPure checks that an op depends on (seed, index) alone.
func TestStreamPure(t *testing.T) {
	cfg := fullConfig(10)
	for _, name := range []string{"point-read", "bulk-read", "durable-mix", "epoch-churn"} {
		a, b := newGenerator(name, 7, &cfg), newGenerator(name, 7, &cfg)
		other := newGenerator(name, 8, &cfg)
		same := 0
		for _, i := range []uint64{0, 5, 1 << 20, 3, 5} {
			if describe(a.at(i)) != describe(b.at(i)) {
				t.Errorf("%s: op %d differs between two generators of one seed", name, i)
			}
			if describe(a.at(i)) == describe(other.at(i)) {
				same++
			}
		}
		if same == 5 {
			t.Errorf("%s: seeds 7 and 8 give the same ops", name)
		}
	}
}

// TestStreamIndependentOfClients runs the closed loop against a stub with
// one and with three clients: either way the ops issued are exactly the
// stream's prefix, each index once.
func TestStreamIndependentOfClients(t *testing.T) {
	cfg := smokeConfig()
	stub, err := serveInproc(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("{}\n"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer stub.close()
	for _, clients := range []int{1, 3} {
		l := &load{gen: newGenerator("durable-mix", 1, &cfg), epoch0: time.Now(), advFPs: map[int]string{}}
		for i := 0; i < clients; i++ {
			l.wg.Add(1)
			go l.reader(stub.url)
		}
		for l.next.Load() < 300 {
			time.Sleep(time.Millisecond)
		}
		l.stop.Store(true)
		l.wg.Wait()
		if uint64(len(l.recs)) != l.next.Load() {
			t.Fatalf("%d clients: %d ops recorded, %d indexes handed out", clients, len(l.recs), l.next.Load())
		}
		seen := make([]bool, len(l.recs))
		for _, rc := range l.recs {
			if rc.idx >= uint64(len(seen)) || seen[rc.idx] {
				t.Fatalf("%d clients: op index %d issued twice or out of range", clients, rc.idx)
			}
			seen[rc.idx] = true
			if want := l.gen.at(rc.idx).kind; rc.kind != want {
				t.Fatalf("%d clients: op %d ran as %s, the stream says %s", clients, rc.idx, rc.kind, want)
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(v, 0.5); got != 5.5 {
		t.Errorf("median of 1..10 = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := iqrShare(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	if tailQ(100000) != 0.99 || tailQ(100) != 0.9 || tailQ(5) != 1 {
		t.Errorf("tailQ: %v %v %v", tailQ(100000), tailQ(100), tailQ(5))
	}
}
