package groups

import (
	"math/rand"

	"repro/internal/ring"
)

// Quarantine implements the paper's footnote 2: "Members may agree to
// ignore an ID if it misbehaves too often, hence reducing spamming."
//
// During group operations, members of a group with a good majority can
// compare results and agree (via BA) that a member misbehaved; after
// Threshold strikes the member is expelled from that group. Only blue
// groups can expel — a red group's bad majority controls any vote, so
// quarantine never redeems red groups; its value is hardening blue groups
// (fewer resident bad members → more slack against later departures, less
// spam amplification).
type Quarantine struct {
	g         *Graph
	Threshold int
	strikes   map[strikeKey]int
	// Expelled counts members removed so far.
	Expelled int
}

type strikeKey struct {
	leader ring.Point
	member ring.Point
}

// NewQuarantine wraps g with a strike tracker. threshold is the number of
// detected misbehaviors that triggers expulsion (≥ 1).
func NewQuarantine(g *Graph, threshold int) *Quarantine {
	if threshold < 1 {
		threshold = 1
	}
	return &Quarantine{g: g, Threshold: threshold, strikes: make(map[strikeKey]int)}
}

// Observe simulates one group operation in G_leader. Each bad member
// independently misbehaves with probability pMis (the adversary trades
// damage now against exposure); a blue group detects each misbehavior and
// issues a strike, expelling members that reach the threshold. Returns the
// number of members expelled by this operation.
func (q *Quarantine) Observe(leader ring.Point, pMis float64, rng *rand.Rand) int {
	grp := q.g.Group(leader)
	if grp == nil || grp.Red() {
		return 0 // no good majority to agree on expulsion
	}
	expelled := 0
	kept := grp.Members[:0]
	for _, m := range grp.Members {
		if m.Bad && rng.Float64() < pMis {
			k := strikeKey{leader, m.ID}
			q.strikes[k]++
			if q.strikes[k] >= q.Threshold {
				expelled++
				delete(q.strikes, k)
				continue // drop the member
			}
		}
		kept = append(kept, m)
	}
	if expelled > 0 {
		grp.Members = kept
		q.Expelled += expelled
		// Expulsion only removes bad members from a blue group, so the
		// majority rule cannot flip it bad; the size floor can, if the
		// group shrinks too far — reclassify to stay honest.
		q.g.classify(grp)
	}
	return expelled
}

// Sweep runs one Observe over every group, returning total expulsions.
func (q *Quarantine) Sweep(pMis float64, rng *rand.Rand) int {
	total := 0
	for _, w := range q.g.Overlay().Ring().Points() {
		total += q.Observe(w, pMis, rng)
	}
	return total
}

// ResidentBadInBlue returns the number of bad members still resident in
// blue groups — the quantity quarantine drives down.
func (g *Graph) ResidentBadInBlue() int {
	count := 0
	for i := range g.byRank {
		grp := &g.byRank[i]
		if grp.Red() {
			continue
		}
		count += grp.BadCount()
	}
	return count
}
