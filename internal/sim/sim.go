// Package sim is the message-passing runtime the protocol simulations
// execute on: a synchronous-round network of nodes whose per-round Step
// functions run concurrently across goroutine workers ("share memory by
// communicating" — nodes interact only through messages).
//
// The model matches the paper's notion of steps: a message sent in round r
// is delivered at the start of round r+1. Byzantine nodes are ordinary
// nodes with arbitrary Step implementations; the adversary's global
// knowledge is modeled by letting Byzantine node constructors share state
// among themselves (the paper's single coordinating adversary).
//
// Inboxes are double-buffered and reused round over round, and outbox
// routing is sharded by recipient across the same workers that step the
// nodes, so a single-worker round allocates nothing in steady state. Each
// recipient's inbox is filled by exactly one worker scanning senders in
// ascending order, so inboxes arrive sorted by (sender, send order) — a
// total, schedule-independent order that needs no post-hoc sort.
package sim

import (
	"slices"

	"repro/internal/engine"
)

// NodeID indexes a node in the network.
type NodeID int

// Message is one unit of communication. Payload types are protocol-defined;
// payloads must be treated as immutable once sent.
type Message struct {
	From, To NodeID
	Payload  any
}

// Node is a protocol participant. Step is called once per round with the
// messages delivered this round and returns the messages to deliver next
// round. The inbox is sorted by sender, with multiple messages from one
// sender appearing in the order that sender returned them — a deterministic
// total order at every worker count. Step implementations must not retain
// or mutate the inbox slice: its backing array is reused by a later round.
// The returned outbox is only read until that node's next Step, so nodes
// may reuse one backing slice across rounds.
type Node interface {
	Step(round int, inbox []Message) []Message
}

// Network executes nodes in synchronous rounds.
type Network struct {
	nodes []Node
	// adj restricts communication: a message from sender u < adjRestricted
	// is dropped unless its recipient appears in the sorted slice adj[u].
	// Senders at or beyond adjRestricted are unrestricted. This models
	// overlay-topology communication (good nodes only talk to neighbors).
	adj           [][]NodeID
	adjRestricted int
	// workers caps the Step and routing fan-out; 0 (the default) means
	// GOMAXPROCS.
	workers int

	inbox    [][]Message // current-round inboxes, buffers reused across rounds
	next     [][]Message // next-round inboxes under construction by routing
	outboxes [][]Message

	curRound int // round number workers read during a phase
	stats    Stats
}

// Stats aggregates execution counters.
type Stats struct {
	Rounds    int
	Delivered int64 // messages delivered to nodes
	Dropped   int64 // messages dropped by topology restriction / out-of-range
}

// routeTally is one routing worker's private counters, merged into Stats
// after the phase so the hot loop shares nothing.
type routeTally struct {
	delivered, dropped int64
}

// add folds one tally into the cumulative stats.
func (st *Stats) add(rc routeTally) {
	st.Delivered += rc.delivered
	st.Dropped += rc.dropped
}

// New creates a network over the given nodes with unrestricted topology.
func New(nodes []Node) *Network {
	return &Network{
		nodes: nodes,
		inbox: make([][]Message, len(nodes)),
		next:  make([][]Message, len(nodes)),
	}
}

// SetTopology restricts node u to send only to the IDs in adj[u]; nodes
// beyond len(adj) stay unrestricted. Passing nil removes the restriction.
func (nw *Network) SetTopology(adj [][]NodeID) {
	if adj == nil {
		nw.adj = nil
		nw.adjRestricted = 0
		return
	}
	nw.adj = make([][]NodeID, len(adj))
	nw.adjRestricted = len(adj)
	for u, nbs := range adj {
		s := make([]NodeID, len(nbs))
		copy(s, nbs)
		slices.Sort(s)
		nw.adj[u] = s
	}
}

// allowed reports whether the topology permits a message from u to `to`.
func (nw *Network) allowed(u int, to NodeID) bool {
	if u >= nw.adjRestricted {
		return true
	}
	_, ok := slices.BinarySearch(nw.adj[u], to)
	return ok
}

// routeShard routes every outbox message whose recipient falls in shard s
// of `shards` into the next-round inboxes, reusing their backing arrays.
// Senders are scanned in ascending order, so each inbox is filled already
// sorted by (sender, send order). Exactly one shard (s = 0) accounts for
// messages with out-of-range recipients, which belong to no shard.
//
// Every shard scans all outbox headers and skips foreign recipients: the
// cheap O(m) header scan is duplicated per worker so that the expensive
// parts — topology checks and inbox appends — divide across workers while
// each inbox keeps a single writer (which is what makes the delivery order
// schedule-independent without a sort or merge step).
func (nw *Network) routeShard(s, shards int, rc *routeTally) {
	n := len(nw.nodes)
	lo, hi := s*n/shards, (s+1)*n/shards
	for d := lo; d < hi; d++ {
		nw.next[d] = nw.next[d][:0]
	}
	for u, out := range nw.outboxes {
		for _, m := range out {
			d := int(m.To)
			if d < 0 || d >= n {
				if s == 0 {
					rc.dropped++
				}
				continue
			}
			if d < lo || d >= hi {
				continue
			}
			if !nw.allowed(u, m.To) {
				rc.dropped++
				continue
			}
			m.From = NodeID(u) // senders cannot forge From
			nw.next[d] = append(nw.next[d], m)
			rc.delivered++
		}
	}
}

// Run executes `rounds` synchronous rounds and returns the cumulative stats.
func (nw *Network) Run(rounds int) Stats {
	n := len(nw.nodes)
	if nw.outboxes == nil {
		nw.outboxes = make([][]Message, n)
	}
	if nw.next == nil { // networks predating double-buffering (zero value)
		nw.next = make([][]Message, n)
	}
	workers := min(engine.Workers(nw.workers), n)
	if workers <= 1 {
		return nw.runSerial(rounds)
	}
	return nw.runParallel(rounds, workers)
}

// runSerial is the single-worker fast path: no goroutines, no atomics, and
// zero allocations per round in steady state. Kept out of runParallel so
// its locals are not forced to the heap by the fan-out closures.
func (nw *Network) runSerial(rounds int) Stats {
	var rc routeTally
	for r := 0; r < rounds; r++ {
		nw.curRound = nw.stats.Rounds
		for i, nd := range nw.nodes {
			nw.outboxes[i] = nd.Step(nw.curRound, nw.inbox[i])
		}
		nw.routeShard(0, 1, &rc)
		nw.inbox, nw.next = nw.next, nw.inbox
		nw.stats.Rounds++
	}
	nw.stats.add(rc)
	return nw.stats
}

// runParallel executes rounds on `workers` workers. Each round is two
// engine.ForEach fan-outs: Step (one index per node) and Route (one index
// per recipient shard). Each ForEach returns only when its workers are
// done, which orders all cross-worker memory accesses between phases.
func (nw *Network) runParallel(rounds, workers int) Stats {
	tallies := make([]routeTally, workers)
	step := func(_, i int) {
		nw.outboxes[i] = nw.nodes[i].Step(nw.curRound, nw.inbox[i])
	}
	route := func(w, s int) { nw.routeShard(s, workers, &tallies[w]) }
	for r := 0; r < rounds; r++ {
		nw.curRound = nw.stats.Rounds
		engine.ForEach(workers, len(nw.nodes), step)
		engine.ForEach(workers, workers, route)
		nw.inbox, nw.next = nw.next, nw.inbox
		nw.stats.Rounds++
	}
	for w := 0; w < workers; w++ {
		nw.stats.add(tallies[w])
	}
	return nw.stats
}

// Broadcast builds a message list addressed to every ID in to.
func Broadcast(payload any, to []NodeID) []Message {
	out := make([]Message, len(to))
	for i, v := range to {
		out[i] = Message{To: v, Payload: payload}
	}
	return out
}
