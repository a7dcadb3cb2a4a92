package groups

import (
	"math/rand"

	"repro/internal/ring"
)

// Outcome is the result of one search in the group graph (§II): the
// overlay route from the initiating group toward suc(key), lifted to
// groups and walked with all-to-all exchange until it completes or hits
// its first red group. The path itself never escapes; callers that need
// it walk the overlay route themselves.
type Outcome struct {
	// OK is true iff the search traversed only blue groups and the overlay
	// route terminated (the search succeeded).
	OK bool
	// FailedAt is the hop index of the first red group, or -1.
	FailedAt int
	// Hops is the number of groups traversed — the search path: the full
	// route on success, the prefix up to and including the first red group
	// on failure (§II defines responsibility on search paths because the
	// adversary controls routing after the first red group), and the whole
	// attempted route when the overlay route itself failed.
	Hops int
	// LastRank is the ring rank of the route's terminal ID suc(key) when
	// the overlay route terminated, else -1. Callers that need suc(key)
	// anyway — the epoch pipeline resolves every member point's owner —
	// read it instead of paying a second successor search.
	LastRank int
	// Messages counts the secure-routing cost actually incurred: |G_a|·|G_b|
	// per traversed group-graph edge (all-to-all exchange), accumulated
	// until success or first failure.
	Messages int64
}

// SearchScratch holds the reusable route buffer of the search primitive.
// One scratch serves any number of sequential searches across any graphs;
// concurrent searchers need one scratch each (the epoch pipeline keeps one
// per worker). The zero value is ready to use.
type SearchScratch struct {
	ranks []int32
}

// SearchOutcomeDualTo runs the search for key initiated by the group led
// by the ring's srcRank-th ID. With a non-nil g2 it is the §III-A dual
// search: the same search in a second group graph over the same overlay
// (the two graphs of an epoch generation always share one), classified
// from the one overlay route, so both outcomes cost a single walk. With a
// nil g2 it is a single search and both outcomes are g's.
//
// targetRank is the ring rank of suc(key), or -1 to resolve it from key;
// callers that verify a location they just searched — the epoch's
// neighbor verification re-targets the suc it located one step earlier —
// skip the second successor search this way. The route lives in sc's
// buffer (a nil sc uses a transient one), so steady-state searches make
// zero allocations.
func (g *Graph) SearchOutcomeDualTo(g2 *Graph, srcRank, targetRank int, key ring.Point, sc *SearchScratch) (Outcome, Outcome) {
	if sc == nil {
		sc = &SearchScratch{}
	}
	if targetRank < 0 {
		targetRank = g.ov.Ring().SuccessorIndex(key)
	}
	ranks, ok := g.ov.RouteRanks(sc.ranks, srcRank, targetRank, key)
	sc.ranks = ranks[:0]
	o := g.walk(ranks, ok)
	if g2 == nil {
		return o, o
	}
	return o, g2.walk(ranks, ok)
}

// SearchOutcome is the single search for key initiated by the group led
// by src, in point form: the benchmark module's read ladder times it. A
// src that leads no group fails at its first hop.
func (g *Graph) SearchOutcome(src, key ring.Point, sc *SearchScratch) Outcome {
	si, ok := g.ov.Ring().Index(src)
	if !ok {
		return Outcome{FailedAt: 0, Hops: 1, LastRank: -1}
	}
	o, _ := g.SearchOutcomeDualTo(nil, si, -1, key, sc)
	return o
}

// walk classifies one overlay route against g: it charges all-to-all
// messages per hop until the route completes or reaches its first red
// group. ok is the route's termination flag.
func (g *Graph) walk(ranks []int32, ok bool) Outcome {
	res := Outcome{FailedAt: -1, LastRank: -1}
	if !ok {
		// The overlay itself failed to route (cannot happen on an honest
		// ring; treated as failure).
		res.Hops = len(ranks)
		return res
	}
	res.LastRank = int(ranks[len(ranks)-1])
	var prev *Group
	for i, ri := range ranks {
		grp := &g.byRank[ri]
		res.Hops++
		if prev != nil {
			res.Messages += int64(prev.Size()) * int64(grp.Size())
		}
		if grp.Red() {
			res.FailedAt = i
			return res
		}
		prev = grp
	}
	res.OK = true
	return res
}

// Robustness aggregates the ε-robustness measurements of Theorem 3.
type Robustness struct {
	N              int
	GroupSize      int
	RedFraction    float64 // fraction of red groups (1 − first bullet of Thm 3)
	SearchFailRate float64 // fraction of failed searches (1 − second bullet)
	MeanRouteLen   float64 // groups traversed per successful search
	MeanMessages   float64 // messages per search (secure-routing cost)
	Samples        int
}

// MeasureRobustness runs `samples` searches from u.a.r. *good-led* groups to
// u.a.r. keys and reports failure rates and costs. Searches initiated at
// red groups are counted as failures attributed to the initiating ID (the
// paper's second bullet: all but an ε-fraction of IDs can search).
func (g *Graph) MeasureRobustness(samples int, rng *rand.Rand) Robustness {
	r := g.ov.Ring()
	n := r.Len()
	rob := Robustness{N: n, GroupSize: g.size, RedFraction: g.RedFraction(), Samples: samples}
	fails := 0
	var totalMsgs int64
	totalLen := 0
	okCount := 0
	var sc SearchScratch
	for i := 0; i < samples; i++ {
		si := rng.Intn(n)
		key := ring.Point(rng.Uint64())
		res, _ := g.SearchOutcomeDualTo(nil, si, -1, key, &sc)
		totalMsgs += res.Messages
		if !res.OK {
			fails++
			continue
		}
		okCount++
		totalLen += res.Hops
	}
	rob.SearchFailRate = float64(fails) / float64(samples)
	rob.MeanMessages = float64(totalMsgs) / float64(samples)
	if okCount > 0 {
		rob.MeanRouteLen = float64(totalLen) / float64(okCount)
	}
	return rob
}

// Costs quantifies Corollary 1 for this graph.
type Costs struct {
	GroupSize         int
	GroupCommMsgs     int64   // |G|² per intra-group operation
	RoutingMsgsPerHop float64 // mean |G_a|·|G_b| over group-graph edges
	MeanStatePerID    float64 // Lemma 10 state: members of own groups + neighbor-group members
	MaxStatePerID     int
}

// MeasureCosts samples per-ID state and per-edge routing cost.
// State of an ID u = Σ over groups containing u of |G| (membership state)
// + Σ over the neighbor groups of u's own group of |G| (link state).
func (g *Graph) MeasureCosts(sampleIDs int, rng *rand.Rand) Costs {
	r := g.ov.Ring()
	n := r.Len()
	c := Costs{GroupSize: g.size, GroupCommMsgs: int64(g.size) * int64(g.size)}
	if sampleIDs > n {
		sampleIDs = n
	}
	// Membership state of every ID, in one pass over the member slots.
	memberState := make([]int, n)
	for i := range g.byRank {
		grp := &g.byRank[i]
		for _, m := range grp.Members {
			if mi, ok := r.Index(m.ID); ok {
				memberState[mi] += grp.Size()
			}
		}
	}
	totalState := 0
	var hopCost int64
	hops := 0
	for i := 0; i < sampleIDs; i++ {
		ui := rng.Intn(n)
		state := memberState[ui]
		uSize := g.byRank[ui].Size()
		for _, nb := range g.ov.Neighbors(r.At(ui)) {
			if grp := g.Group(nb); grp != nil {
				state += grp.Size()
				hopCost += int64(uSize) * int64(grp.Size())
				hops++
			}
		}
		totalState += state
		if state > c.MaxStatePerID {
			c.MaxStatePerID = state
		}
	}
	c.MeanStatePerID = float64(totalState) / float64(sampleIDs)
	if hops > 0 {
		c.RoutingMsgsPerHop = float64(hopCost) / float64(hops)
	}
	return c
}
