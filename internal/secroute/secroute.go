// Package secroute implements secure routing as an actual message protocol
// — the mechanism §I of the paper only sketches: "For groups G1 and G2
// along a route, all members of G1 transmit messages to all members of G2.
// This all-to-all exchange, followed by majority filtering by each
// non-faulty ID in G2, guarantees correctness."
//
// Where internal/groups scores a search by whether its path touches a red
// group, this package transmits an actual value hop by hop, with Byzantine
// members corrupting every copy they relay, and each receiving member
// majority-filtering the copies it got. It demonstrates (and its tests and
// experiment E14 verify) the two directions of the paper's claim:
//
//   - along an all-blue path, the value arrives intact even though good
//     groups contain a minority of bad members;
//   - once a group with a bad majority is traversed, the value is lost or
//     forged — which is why red groups fail searches.
package secroute

import (
	"repro/internal/groups"
	"repro/internal/ring"
)

// HopReport describes the delivery state at one group along the route.
type HopReport struct {
	Leader ring.Point
	// GoodCopies / BadCopies count the value copies held by good members
	// after majority filtering at this hop (bad members hold whatever the
	// adversary likes; we track them for message accounting only).
	GoodCopies int
	// Intact reports whether every good member of this group holds the
	// original value after filtering.
	Intact bool
}

// Result is the outcome of routing one value.
type Result struct {
	Hops []HopReport
	// Delivered reports whether a strict majority of the final group's
	// members hold the original value — the condition for the group to
	// act on it (answer the query, store the data) despite its bad
	// members. A good minority inside a majority-bad final group may still
	// hold genuine copies, but the group as a unit is compromised.
	Delivered bool
	Messages  int64 // total member-to-member messages (the Θ(|G|²) per hop)
}

// Route transmits a value from the group of src toward the owner of key in
// g, simulating the per-member all-to-all exchange with majority
// filtering. Bad members always forward a forgery (the strongest
// value-corruption behavior; collusion is implicit since all forgeries
// agree). Only the genuine/forged state of each copy matters, so the
// payload itself is elided.
func Route(g *groups.Graph, src, key ring.Point) Result {
	res := Result{}
	r := g.Overlay().Ring()
	si, onRing := r.Index(src)
	if !onRing {
		return res
	}
	route, ok := g.Overlay().RouteRanks(nil, si, r.SuccessorIndex(key), key)
	if !ok {
		return res
	}
	// holdings[i] = true if good member i of the current group holds the
	// original value (bad members never hold it honestly).
	cur := g.GroupAt(si)
	holdings := make([]bool, cur.Size())
	for i, m := range cur.Members {
		holdings[i] = !m.Bad // originator's good members all start with the value
	}
	res.Hops = append(res.Hops, report(cur, holdings))

	for _, ri := range route[1:] {
		next := g.GroupAt(int(ri))
		res.Messages += int64(cur.Size()) * int64(next.Size())
		holdings = transferHop(cur, holdings, next)
		res.Hops = append(res.Hops, report(next, holdings))
		cur = next
	}
	final := res.Hops[len(res.Hops)-1]
	res.Delivered = 2*final.GoodCopies > cur.Size()
	return res
}

// transferHop performs one all-to-all exchange: every member of from sends
// its copy to every member of to; each good member of to keeps the
// majority value among the copies received. A good receiver ends up with
// the original value iff the original copies strictly outnumber the
// forgeries among from's members.
func transferHop(from *groups.Group, holdings []bool, to *groups.Group) []bool {
	genuine, forged := 0, 0
	for i, m := range from.Members {
		if m.Bad || !holdings[i] {
			forged++ // bad member or good member already poisoned
		} else {
			genuine++
		}
	}
	out := make([]bool, to.Size())
	if genuine > forged {
		for i, m := range to.Members {
			out[i] = !m.Bad
		}
	}
	// else: majority filtering fails — no good receiver recovers the value.
	return out
}

func intact(grp *groups.Group, holdings []bool) bool {
	for i, m := range grp.Members {
		if !m.Bad && !holdings[i] {
			return false
		}
	}
	return true
}

func report(grp *groups.Group, holdings []bool) HopReport {
	h := HopReport{Leader: grp.Leader, Intact: intact(grp, holdings)}
	for i, m := range grp.Members {
		if !m.Bad && holdings[i] {
			h.GoodCopies++
		}
	}
	return h
}
