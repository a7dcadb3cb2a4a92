package groups

import "repro/internal/ring"

// GoodDepartureBound returns ε'/2 = (1 − 2(1+δ)β)/2, the paper's §III
// bound on the fraction of good IDs that may depart any single group per
// epoch while provably preserving its good majority.
func (p Params) GoodDepartureBound() float64 {
	return (1 - 2*(1+p.Delta)*p.Beta) / 2
}

// DepartureReport summarizes one round of mid-epoch departures.
type DepartureReport struct {
	Departed     int // member slots vacated across all groups
	LostMajority int // groups that began good but lost their good majority
	Undersized   int // groups that fell below half their original size
}

// RemoveMembers applies mid-epoch departures: every member whose ID is in
// departed leaves all groups it belongs to. Groups are reclassified under
// the paper's revised dynamic definition (§III): a group that began good
// stays good iff it retains a good majority; a group that began bad stays
// bad. Groups shrunk below half their built size also turn bad (they can
// no longer guarantee the d₁·ln ln n floor).
func (g *Graph) RemoveMembers(departed map[ring.Point]bool) DepartureReport {
	var rep DepartureReport
	for i := range g.byRank {
		grp := &g.byRank[i]
		kept := grp.Members[:0]
		removed := 0
		for _, m := range grp.Members {
			if departed[m.ID] {
				removed++
				continue
			}
			kept = append(kept, m)
		}
		if removed == 0 {
			continue
		}
		grp.Members = kept
		rep.Departed += removed
		if grp.Bad {
			continue // began bad: stays bad
		}
		sz := grp.Size()
		bad := grp.BadCount()
		if 2*bad >= sz && sz > 0 {
			grp.Bad = true
			rep.LostMajority++
			continue
		}
		if 2*sz < g.size || sz == 0 {
			grp.Bad = true
			rep.Undersized++
		}
	}
	return rep
}
