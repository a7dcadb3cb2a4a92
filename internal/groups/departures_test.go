package groups

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ring"
)

func TestGoodDepartureBoundArithmetic(t *testing.T) {
	p := DefaultParams() // beta 0.10, delta 0.25
	want := (1 - 2*1.25*0.10) / 2
	if math.Abs(p.GoodDepartureBound()-want) > 1e-12 {
		t.Errorf("bound = %v, want %v", p.GoodDepartureBound(), want)
	}
}

// Property (the paper's §III claim, checked by arithmetic over random
// group compositions): a group beginning with bad ≤ (1+δ)β·s keeps a good
// majority after losing up to ε'/2 of its good members.
func TestDepartureBoundPreservesMajorityProperty(t *testing.T) {
	p := DefaultParams()
	bound := p.GoodDepartureBound()
	f := func(sizeSeed, badSeed uint8) bool {
		s := 4 + int(sizeSeed)%60
		maxBad := int((1 + p.Delta) * p.Beta * float64(s))
		b := int(badSeed) % (maxBad + 1)
		good := s - b
		departing := int(math.Floor(bound * float64(good)))
		remainingGood := good - departing
		return remainingGood > b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRemoveMembersUniform(t *testing.T) {
	g, pl := buildTest(512, 0.05, 31)
	rng := rand.New(rand.NewSource(32))
	// Depart 20% of good IDs u.a.r. — far below the erosion level that
	// threatens majorities at size 6 with ≤2 bad members.
	departed := map[ring.Point]bool{}
	for _, id := range pl.Good {
		if rng.Float64() < 0.20 {
			departed[id] = true
		}
	}
	// Capture per-group pre-departure composition: the ε'/2 guarantee
	// (§III) applies to groups meeting the strict (1+δ)β criterion whose
	// own good departures stay within the bound.
	type before struct{ good, bad, goodDeparting int }
	pre := map[ring.Point]before{}
	params := g.params
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		b := before{}
		for _, m := range grp.Members {
			if m.Bad {
				b.bad++
			} else {
				b.good++
				if departed[m.ID] {
					b.goodDeparting++
				}
			}
		}
		pre[grp.Leader] = b
	}
	beforeRed := g.RedFraction()
	rep := g.RemoveMembers(departed)
	if rep.Departed == 0 {
		t.Fatal("no members departed")
	}
	bound := params.GoodDepartureBound()
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		b := pre[grp.Leader]
		strictGood := float64(b.bad) <= (1+params.Delta)*params.Beta*float64(b.good+b.bad)
		within := float64(b.goodDeparting) <= bound*float64(b.good)
		if strictGood && within && grp.Size() > 0 {
			if 2*grp.BadCount() >= grp.Size() {
				t.Fatalf("group %v lost majority despite strict composition and bounded departures", grp.Leader)
			}
		}
	}
	if g.RedFraction() < beforeRed {
		t.Error("red fraction cannot decrease on departures")
	}
	// No group may retain a departed member.
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		for _, m := range grp.Members {
			if departed[m.ID] {
				t.Fatal("departed member still present")
			}
		}
	}
}

func TestRemoveMembersMassDeparture(t *testing.T) {
	// Departing (almost) all good IDs must flip groups bad via majority
	// loss or undersize.
	g, pl := buildTest(256, 0.10, 33)
	departed := map[ring.Point]bool{}
	for _, id := range pl.Good {
		departed[id] = true
	}
	rep := g.RemoveMembers(departed)
	if rep.LostMajority+rep.Undersized == 0 {
		t.Fatal("mass departure flipped no groups")
	}
	if g.RedFraction() < 0.9 {
		t.Errorf("red fraction %.2f after all good IDs departed", g.RedFraction())
	}
}

func TestRemoveMembersBeganBadStaysBad(t *testing.T) {
	g, _ := buildTest(256, 0.3, 34)
	var badLeader ring.Point
	found := false
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		if grp.Bad {
			badLeader, found = grp.Leader, true
			break
		}
	}
	if !found {
		t.Skip("no bad group at this seed")
	}
	// Departing every bad member cannot redeem a group that began bad.
	departed := map[ring.Point]bool{}
	for _, m := range g.Group(badLeader).Members {
		if m.Bad {
			departed[m.ID] = true
		}
	}
	g.RemoveMembers(departed)
	if !g.Group(badLeader).Bad {
		t.Error("began-bad group was redeemed by departures")
	}
}

func TestRemoveMembersNoopOnEmptySet(t *testing.T) {
	g, _ := buildTest(128, 0.05, 35)
	before := g.RedFraction()
	rep := g.RemoveMembers(map[ring.Point]bool{})
	if rep.Departed != 0 || g.RedFraction() != before {
		t.Error("empty departure set must be a no-op")
	}
}
