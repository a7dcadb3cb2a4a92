package sim

import (
	"sync/atomic"
	"testing"
)

// echoNode forwards every received payload to node 0.
type echoNode struct{ received int64 }

func (e *echoNode) Step(round int, inbox []Message) []Message {
	atomic.AddInt64(&e.received, int64(len(inbox)))
	var out []Message
	for range inbox {
		out = append(out, Message{To: 0, Payload: "ack"})
	}
	return out
}

// seedNode sends one message to each other node in round 0.
type seedNode struct {
	n    int
	self NodeID
}

func (s *seedNode) Step(round int, inbox []Message) []Message {
	if round != 0 {
		return nil
	}
	var out []Message
	for i := 0; i < s.n; i++ {
		if NodeID(i) != s.self {
			out = append(out, Message{To: NodeID(i), Payload: "hi"})
		}
	}
	return out
}

func TestMessagesDeliveredNextRound(t *testing.T) {
	const n = 5
	nodes := make([]Node, n)
	nodes[0] = &seedNode{n: n, self: 0}
	echoes := make([]*echoNode, n)
	for i := 1; i < n; i++ {
		echoes[i] = &echoNode{}
		nodes[i] = echoes[i]
	}
	nw := New(nodes)
	st := nw.Run(1)
	// Delivered counts messages routed into next-round inboxes.
	if st.Delivered != n-1 {
		t.Fatalf("queued = %d, want %d", st.Delivered, n-1)
	}
	for i := 1; i < n; i++ {
		if echoes[i].received != 0 {
			t.Fatalf("node %d consumed a message in the sending round", i)
		}
	}
	st = nw.Run(1)
	// Echo nodes consumed their messages and queued n-1 acks to node 0.
	if st.Delivered != 2*(n-1) {
		t.Fatalf("cumulative delivered = %d, want %d", st.Delivered, 2*(n-1))
	}
	for i := 1; i < n; i++ {
		if echoes[i].received != 1 {
			t.Fatalf("node %d received %d, want 1", i, echoes[i].received)
		}
	}
}

func TestTopologyRestriction(t *testing.T) {
	const n = 4
	nodes := make([]Node, n)
	nodes[0] = &seedNode{n: n, self: 0}
	for i := 1; i < n; i++ {
		nodes[i] = &echoNode{}
	}
	nw := New(nodes)
	nw.SetTopology([][]NodeID{0: {1}, 1: {}, 2: {}, 3: {}})
	st := nw.Run(2)
	if st.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (only 0→1 allowed)", st.Delivered)
	}
	// Dropped: 0→2 and 0→3 in round 0, plus node 1's echo ack 1→0 in round 1.
	if st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
}

func TestOutOfRangeRecipientsDropped(t *testing.T) {
	nodes := []Node{&seedNode{n: 10, self: 0}, &echoNode{}}
	nw := New(nodes)
	st := nw.Run(2)
	// Round 0: 0→1 delivered, 0→{2..9} out of range. Round 1: echo ack 1→0.
	if st.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", st.Delivered)
	}
	if st.Dropped != 8 {
		t.Fatalf("dropped = %d, want 8", st.Dropped)
	}
}

// forgeNode tries to forge its From field.
type forgeNode struct{}

func (forgeNode) Step(round int, inbox []Message) []Message {
	if round == 0 {
		return []Message{{From: 99, To: 1, Payload: "forged"}}
	}
	return nil
}

// captureNode records sender IDs.
type captureNode struct{ froms []NodeID }

func (c *captureNode) Step(round int, inbox []Message) []Message {
	for _, m := range inbox {
		c.froms = append(c.froms, m.From)
	}
	return nil
}

func TestFromFieldCannotBeForged(t *testing.T) {
	cap := &captureNode{}
	nw := New([]Node{forgeNode{}, cap})
	nw.Run(2)
	if len(cap.froms) != 1 || cap.froms[0] != 0 {
		t.Fatalf("From = %v, want [0] (runtime must stamp the true sender)", cap.froms)
	}
}

// counterNode counts rounds it was stepped.
type counterNode struct{ steps int64 }

func (c *counterNode) Step(round int, inbox []Message) []Message {
	atomic.AddInt64(&c.steps, 1)
	return nil
}

func TestAllNodesSteppedEveryRound(t *testing.T) {
	const n, rounds = 32, 7
	nodes := make([]Node, n)
	counters := make([]*counterNode, n)
	for i := range nodes {
		counters[i] = &counterNode{}
		nodes[i] = counters[i]
	}
	nw := New(nodes)
	st := nw.Run(rounds)
	if st.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", st.Rounds, rounds)
	}
	for i, c := range counters {
		if c.steps != rounds {
			t.Fatalf("node %d stepped %d times, want %d", i, c.steps, rounds)
		}
	}
}

func TestBroadcastHelper(t *testing.T) {
	msgs := Broadcast("x", []NodeID{3, 1, 4})
	if len(msgs) != 3 || msgs[0].To != 3 || msgs[2].To != 4 {
		t.Fatalf("Broadcast built %v", msgs)
	}
}

// inboxOrderNode verifies the inbox is sorted by sender.
type inboxOrderNode struct{ bad bool }

func (n *inboxOrderNode) Step(round int, inbox []Message) []Message {
	for i := 1; i < len(inbox); i++ {
		if inbox[i].From < inbox[i-1].From {
			n.bad = true
		}
	}
	return nil
}

// sprayNode sends to node 0 from many sources.
type sprayNode struct{}

func (sprayNode) Step(round int, inbox []Message) []Message {
	if round == 0 {
		return []Message{{To: 0, Payload: "s"}}
	}
	return nil
}

func TestInboxSortedBySender(t *testing.T) {
	const n = 64
	target := &inboxOrderNode{}
	nodes := make([]Node, n)
	nodes[0] = target
	for i := 1; i < n; i++ {
		nodes[i] = sprayNode{}
	}
	nw := New(nodes)
	nw.Run(2)
	if target.bad {
		t.Fatal("inbox not sorted by sender")
	}
}

// burstNode sends several distinguishable messages to one target in round 0.
type burstNode struct {
	target NodeID
	count  int
}

func (b *burstNode) Step(round int, inbox []Message) []Message {
	if round != 0 {
		return nil
	}
	var out []Message
	for k := 0; k < b.count; k++ {
		out = append(out, Message{To: b.target, Payload: k})
	}
	return out
}

// recorderNode captures (sender, payload) pairs in delivery order.
type recorderNode struct{ got [][2]int }

func (r *recorderNode) Step(round int, inbox []Message) []Message {
	for _, m := range inbox {
		r.got = append(r.got, [2]int{int(m.From), m.Payload.(int)})
	}
	return nil
}

// TestSameSenderOrderDeterministic is the regression test for the
// inconsistent inbox comparator the runtime used to have: multiple messages
// from one sender tie-broke on unstable sort indices, so their relative
// order was unspecified. The contract now is (sender, send order), at every
// worker count.
func TestSameSenderOrderDeterministic(t *testing.T) {
	build := func() (*Network, *recorderNode) {
		rec := &recorderNode{}
		nodes := []Node{rec,
			&burstNode{target: 0, count: 5},
			&burstNode{target: 0, count: 3},
			&burstNode{target: 0, count: 4},
		}
		return New(nodes), rec
	}
	var want [][2]int
	for from := 1; from <= 3; from++ {
		for k := 0; k < []int{0, 5, 3, 4}[from]; k++ {
			want = append(want, [2]int{from, k})
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		nw, rec := build()
		nw.workers = workers
		nw.Run(2)
		if len(rec.got) != len(want) {
			t.Fatalf("workers=%d: received %d messages, want %d", workers, len(rec.got), len(want))
		}
		for i := range want {
			if rec.got[i] != want[i] {
				t.Fatalf("workers=%d: delivery[%d] = %v, want %v (inbox must be sorted by sender with per-sender send order preserved)",
					workers, i, rec.got[i], want[i])
			}
		}
	}
}

// trafficNode deterministically sprays messages derived from (self, round)
// so multi-round runs exercise routing, topology drops and ordering.
type trafficNode struct {
	self  NodeID
	n     int
	trace []int64
	out   []Message
}

func (tn *trafficNode) Step(round int, inbox []Message) []Message {
	var acc int64
	for _, m := range inbox {
		acc = acc*31 + int64(m.From) + int64(m.Payload.(int))
	}
	tn.trace = append(tn.trace, acc)
	tn.out = tn.out[:0]
	for k := 0; k < 3; k++ {
		to := NodeID((int(tn.self) + (round+1)*(k+1)) % (tn.n + 2)) // some land out of range/topology
		tn.out = append(tn.out, Message{To: to, Payload: int(tn.self)*100 + round + k})
	}
	return tn.out
}

// TestWorkerCountNeverChangesResults runs one deterministic traffic pattern
// at several worker counts and demands identical per-node observation traces
// and stats — the sim-level version of the repo's -parallel 1 ≡ -parallel 8
// contract.
func TestWorkerCountNeverChangesResults(t *testing.T) {
	run := func(workers int) ([][]int64, Stats) {
		const n = 31
		nodes := make([]Node, n)
		tns := make([]*trafficNode, n)
		adj := make([][]NodeID, n)
		for i := range nodes {
			tns[i] = &trafficNode{self: NodeID(i), n: n}
			nodes[i] = tns[i]
			for d := 1; d <= 4; d++ {
				adj[i] = append(adj[i], NodeID((i+d)%n))
			}
		}
		nw := New(nodes)
		nw.SetTopology(adj)
		nw.workers = workers
		st := nw.Run(9)
		traces := make([][]int64, n)
		for i, tn := range tns {
			traces[i] = tn.trace
		}
		return traces, st
	}
	wantTraces, wantStats := run(1)
	for _, workers := range []int{2, 4, 16} {
		traces, stats := run(workers)
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
		}
		for i := range traces {
			for j := range wantTraces[i] {
				if traces[i][j] != wantTraces[i][j] {
					t.Fatalf("workers=%d: node %d trace diverges at round %d", workers, i, j)
				}
			}
		}
	}
}

// TestSteadyStateRoundAllocationFree is the allocation-regression gate for
// the serial runtime: once inbox/outbox buffers have warmed up, a round
// on a fixed topology must not allocate at all (single-worker path, which
// is what GOMAXPROCS=1 CI exercises).
func TestSteadyStateRoundAllocationFree(t *testing.T) {
	const n = 64
	nodes := make([]Node, n)
	adj := make([][]NodeID, n)
	for i := range nodes {
		l, r := NodeID((i+n-1)%n), NodeID((i+1)%n)
		nodes[i] = &benchStyleNode{left: l, right: r}
		adj[i] = []NodeID{l, r}
	}
	nw := New(nodes)
	nw.SetTopology(adj)
	nw.workers = 1
	nw.Run(4) // warm up buffers
	if allocs := testing.AllocsPerRun(50, func() { nw.Run(1) }); allocs != 0 {
		t.Errorf("steady-state round: %v allocs/op, want 0", allocs)
	}
}

// benchStyleNode mirrors the BenchmarkSimRound node: allocation-free Steps.
type benchStyleNode struct {
	left, right NodeID
	out         []Message
}

func (b *benchStyleNode) Step(round int, inbox []Message) []Message {
	b.out = b.out[:0]
	b.out = append(b.out,
		Message{To: b.left, Payload: "m"},
		Message{To: b.right, Payload: "m"})
	return b.out
}

// TestTopologyUnlistedSendersUnrestricted pins the adjacency-slice port of
// SetTopology to the original map semantics: senders beyond the passed
// adjacency stay unrestricted, listed senders (even with empty lists) are
// restricted, and SetTopology(nil) clears everything.
func TestTopologyUnlistedSendersUnrestricted(t *testing.T) {
	nodes := []Node{&recorderNode{}, &burstNode{target: 0, count: 1}, &burstNode{target: 0, count: 1}}
	nw := New(nodes)
	nw.SetTopology([][]NodeID{0: {}, 1: {}}) // node 2 unlisted → unrestricted
	st := nw.Run(2)
	if st.Delivered != 1 || st.Dropped != 1 {
		t.Fatalf("delivered/dropped = %d/%d, want 1/1 (only the unlisted sender passes)", st.Delivered, st.Dropped)
	}
	nw.SetTopology(nil)
	st = nw.Run(1)
	if st.Dropped != 1 {
		t.Fatalf("clearing topology changed drop accounting: %+v", st)
	}
}
