// Package ba implements synchronous Byzantine agreement inside a group —
// the building block the paper invokes (§I: "Computation is performed by
// all members of a group via protocols for Byzantine agreement [28]") so
// that each group simulates a reliable processor.
//
// The protocol is the classic phase-king algorithm: t+1 phases of two
// rounds each, tolerating t Byzantine members for group size n > 4t. With
// the paper's good-group guarantee — a bad fraction at most (1+δ)β for
// small β — the n > 4t condition holds inside every good group.
//
// Rounds execute on the sim.Network runtime; Byzantine members are modeled
// by the Equivocator node, which sends conflicting values to different
// receivers (worst-case collusion is captured by all equivocators sharing
// one coordinated strategy).
package ba

import (
	"repro/internal/sim"
)

// Payload types.
type proposal struct{ V int } // even-round broadcast of current preference
type kingMsg struct{ V int }  // odd-round king broadcast

// Honest is a phase-king participant. After rounds(t) network rounds,
// Decision holds the agreed value.
//
// Schedule for phase k = 0..T:
//
//	round 2k:   apply phase k−1's king rule (king message is in the inbox),
//	            then broadcast the current preference;
//	round 2k+1: tally proposals; node k (the phase king) broadcasts its
//	            majority value.
//
// Round 2(T+1) applies the final king rule and decides.
type Honest struct {
	Self     sim.NodeID
	N        int // group size
	T        int // tolerated faults; needs N > 4T
	Pref     int // current preference (0 or 1); initially the input value
	Decision int // agreed value, -1 until decided

	all     []sim.NodeID
	lastMaj int // majority value tallied in the last odd round
	lastCnt int // its count
}

// newHonest builds an honest member with input value pref.
func newHonest(self, n, t, pref int) *Honest {
	h := &Honest{Self: sim.NodeID(self), N: n, T: t, Pref: pref, Decision: -1}
	h.all = make([]sim.NodeID, n)
	for i := range h.all {
		h.all[i] = sim.NodeID(i)
	}
	return h
}

// Rounds returns the number of synchronous rounds phase-king needs:
// 2 rounds per phase × (T+1) phases, plus the final decision round.
func rounds(t int) int { return 2*(t+1) + 1 }

// Step implements sim.Node.
func (h *Honest) Step(round int, inbox []sim.Message) []sim.Message {
	phase := round / 2
	even := round%2 == 0
	if even {
		// Apply the previous phase's king rule (no-op in phase 0).
		if phase > 0 {
			kingID := sim.NodeID(phase - 1)
			kingV, kingSeen := -1, false
			for _, m := range inbox {
				if k, ok := m.Payload.(kingMsg); ok && m.From == kingID && (k.V == 0 || k.V == 1) {
					kingV, kingSeen = k.V, true
					break
				}
			}
			if h.lastCnt > h.N/2+h.T {
				h.Pref = h.lastMaj
			} else if kingSeen {
				h.Pref = kingV
			} else {
				h.Pref = h.lastMaj // silent king: keep majority
			}
		}
		if phase > h.T {
			if h.Decision == -1 {
				h.Decision = h.Pref
			}
			return nil
		}
		return sim.Broadcast(proposal{V: h.Pref}, h.all)
	}
	if phase > h.T {
		return nil
	}
	// Odd round: tally this phase's proposals.
	counts := [2]int{}
	for _, m := range inbox {
		if p, ok := m.Payload.(proposal); ok && (p.V == 0 || p.V == 1) {
			counts[p.V]++
		}
	}
	h.lastMaj, h.lastCnt = 0, counts[0]
	if counts[1] > counts[0] {
		h.lastMaj, h.lastCnt = 1, counts[1]
	}
	if int(h.Self) == phase {
		return sim.Broadcast(kingMsg{V: h.lastMaj}, h.all)
	}
	return nil
}

// Equivocator is a coordinated Byzantine member: in proposal rounds it
// tells the first half of the group 0 and the second half 1; as king it
// does the same, maximizing disagreement pressure.
type Equivocator struct {
	Self sim.NodeID
	N    int
}

// Step implements sim.Node.
func (e *Equivocator) Step(round int, inbox []sim.Message) []sim.Message {
	phase := round / 2
	out := make([]sim.Message, 0, e.N)
	mk := func(i int, payload any) sim.Message {
		return sim.Message{To: sim.NodeID(i), Payload: payload}
	}
	if round%2 == 0 {
		for i := 0; i < e.N; i++ {
			out = append(out, mk(i, proposal{V: i * 2 / e.N}))
		}
		return out
	}
	if int(e.Self) == phase {
		for i := 0; i < e.N; i++ {
			out = append(out, mk(i, kingMsg{V: (i*2/e.N + 1) % 2}))
		}
		return out
	}
	return nil
}

// Silent is a crashed Byzantine member: it never sends anything.
type Silent struct{}

// Step implements sim.Node.
func (Silent) Step(int, []sim.Message) []sim.Message { return nil }

// Result summarizes one agreement execution.
type Result struct {
	Decisions []int // per-honest-node decisions (order of construction)
	Agreed    bool  // all honest nodes decided the same value
	Value     int   // the agreed value if Agreed
	Rounds    int
	Messages  int64
}

// Run executes phase-king over a group of n members of which the indices in
// byzantine are faulty (using behavior beh: "equivocate" or "silent"), with
// honest inputs prefs. t is the fault bound the protocol is configured for.
func Run(n, t int, prefs []int, byzantine map[int]bool, beh string) Result {
	nodes := make([]sim.Node, n)
	var honests []*Honest
	for i := 0; i < n; i++ {
		if byzantine[i] {
			if beh == "silent" {
				nodes[i] = Silent{}
			} else {
				nodes[i] = &Equivocator{Self: sim.NodeID(i), N: n}
			}
			continue
		}
		h := newHonest(i, n, t, prefs[i])
		honests = append(honests, h)
		nodes[i] = h
	}
	nw := sim.New(nodes)
	st := nw.Run(rounds(t))
	res := Result{Rounds: st.Rounds, Messages: st.Delivered, Agreed: true}
	for _, h := range honests {
		res.Decisions = append(res.Decisions, h.Decision)
	}
	if len(res.Decisions) > 0 {
		res.Value = res.Decisions[0]
		for _, d := range res.Decisions {
			if d != res.Value {
				res.Agreed = false
			}
		}
	}
	return res
}
