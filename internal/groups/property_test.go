package groups

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashes"
	"repro/internal/ring"
)

// Property: classification is monotone — adding a bad member to a group
// never turns a bad group good, and removing a bad member never turns a
// good group bad (fixed size semantics checked by construction).
func TestClassificationMonotoneProperty(t *testing.T) {
	g, _ := buildTest(256, 0.1, 51)
	f := func(sizeSeed, badSeed uint8) bool {
		size := 4 + int(sizeSeed)%16
		bad := int(badSeed) % (size + 1)
		mk := func(badCount int) *Group {
			grp := &Group{Leader: 1}
			for i := 0; i < size; i++ {
				grp.Members = append(grp.Members, Member{ID: ring.Point(i), Bad: i < badCount})
			}
			return grp
		}
		cur := mk(bad)
		g.classify(cur)
		if bad < size {
			more := mk(bad + 1)
			g.classify(more)
			if cur.Bad && !more.Bad {
				return false // extra bad member un-badged the group
			}
		}
		if bad > 0 {
			fewer := mk(bad - 1)
			g.classify(fewer)
			if !cur.Bad && fewer.Bad {
				return false // removing a bad member badged the group
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: a search path is always a prefix of the overlay route, and
// message cost is the sum of |G_a|·|G_b| over its hops.
func TestSearchPathPrefixProperty(t *testing.T) {
	g, _ := buildTest(512, 0.15, 52)
	r := g.Overlay().Ring()
	rng := rand.New(rand.NewSource(53))
	var sc SearchScratch
	for i := 0; i < 300; i++ {
		si := rng.Intn(r.Len())
		key := ring.Point(rng.Uint64())
		res, _ := g.SearchOutcomeDualTo(nil, si, -1, key, &sc)
		route, ok := g.Overlay().RouteRanks(nil, si, r.SuccessorIndex(key), key)
		if !ok {
			t.Fatal("overlay route failed")
		}
		if res.Hops > len(route) {
			t.Fatal("search path longer than overlay route")
		}
		var wantMsgs int64
		for h := 1; h < res.Hops; h++ {
			wantMsgs += int64(g.GroupAt(int(route[h-1])).Size()) * int64(g.GroupAt(int(route[h])).Size())
		}
		if res.Messages != wantMsgs {
			t.Fatalf("messages %d, want %d", res.Messages, wantMsgs)
		}
	}
}

// Property: RedFraction and BadFraction are consistent — red ⊇ bad, and
// both lie in [0,1].
func TestFractionConsistencyProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, _ := buildTest(256, 0.05+float64(seed)*0.03, 60+seed)
		red, bad := g.RedFraction(), g.BadFraction()
		if bad > red {
			t.Fatalf("seed %d: bad %v > red %v", seed, bad, red)
		}
		if red < 0 || red > 1 {
			t.Fatalf("seed %d: red fraction out of range", seed)
		}
		// Confuse a group: red must not decrease, bad must not change.
		g.GroupAt(0).Confused = true
		if g.RedFraction() < red {
			t.Fatal("confusing a group decreased red fraction")
		}
		if g.BadFraction() != bad {
			t.Fatal("confusion changed bad fraction")
		}
	}
}

// Property: group membership determinism — rebuilding over the same ring
// with the same hash yields identical groups.
func TestBuildDeterministicProperty(t *testing.T) {
	g1, pl := buildTest(256, 0.1, 54)
	ov := g1.Overlay()
	g2 := Build(ov, pl.BadSet(), g1.params, hashes.H1)
	for _, w := range ov.Ring().Points() {
		a, b := g1.Group(w), g2.Group(w)
		if a.Bad != b.Bad || a.Size() != b.Size() {
			t.Fatalf("rebuild differs at %v", w)
		}
		for i := range a.Members {
			if a.Members[i] != b.Members[i] {
				t.Fatalf("member %d differs at %v", i, w)
			}
		}
	}
}
