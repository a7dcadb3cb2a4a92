package groups

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

func buildTest(n int, beta float64, seed int64) (*Graph, adversary.Placement) {
	rng := rand.New(rand.NewSource(seed))
	pl := adversary.Place(adversary.Config{N: n, Beta: beta, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := DefaultParams()
	params.Beta = beta
	g := Build(ov, pl.BadSet(), params, hashes.H1)
	return g, pl
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	bad := DefaultParams()
	bad.Beta = 0.5
	if bad.Validate() == nil {
		t.Error("Beta=0.5 should fail validation")
	}
	bad2 := DefaultParams()
	bad2.D1, bad2.D2 = 3, 2
	if bad2.Validate() == nil {
		t.Error("D1 > D2 should fail validation")
	}
	bad3 := DefaultParams()
	bad3.Beta, bad3.Delta = 0.4, 0.3
	if bad3.Validate() == nil {
		t.Error("(1+Delta)Beta ≥ 1/2 should fail validation")
	}
}

func TestSizeForGrowsDoublyLogarithmically(t *testing.T) {
	p := DefaultParams()
	s1 := p.SizeFor(1 << 10)
	s2 := p.SizeFor(1 << 20)
	if s2 < s1 {
		t.Errorf("size must be monotone: %d then %d", s1, s2)
	}
	// ln ln is nearly flat: doubling the exponent should add at most a few.
	if s2-s1 > 4 {
		t.Errorf("size grew too fast: %d → %d", s1, s2)
	}
	if p.SizeFor(100) < p.MinSize {
		t.Errorf("size below MinSize clamp")
	}
	if p.MinSizeFor(1<<20) > p.SizeFor(1<<20) {
		t.Errorf("MinSizeFor exceeds SizeFor")
	}
}

func TestEveryIDLeadsAGroup(t *testing.T) {
	g, pl := buildTest(512, 0.1, 1)
	if g.N() != pl.N() {
		t.Fatalf("groups = %d, want %d", g.N(), pl.N())
	}
	for _, w := range g.Overlay().Ring().Points() {
		grp := g.Group(w)
		if grp == nil {
			t.Fatalf("ID %v leads no group", w)
		}
		if grp.Leader != w {
			t.Fatalf("leader mismatch")
		}
		if grp.Size() != g.GroupSize() {
			t.Fatalf("group size %d, want %d", grp.Size(), g.GroupSize())
		}
	}
}

func TestMembershipFollowsHashRule(t *testing.T) {
	g, _ := buildTest(256, 0.1, 2)
	r := g.Overlay().Ring()
	w := r.At(17)
	grp := g.Group(w)
	for i, m := range grp.Members {
		want := r.Successor(hashes.H1.PointAt(w, i+1))
		if m.ID != want {
			t.Fatalf("member %d = %v, want suc(h1(w,%d)) = %v", i, m.ID, i+1, want)
		}
	}
}

func TestMemberBadFlagsMatchPlacement(t *testing.T) {
	g, pl := buildTest(256, 0.2, 3)
	bad := pl.BadSet()
	for _, grp := range g.Groups() {
		for _, m := range grp.Members {
			if m.Bad != bad[m.ID] {
				t.Fatalf("member %v bad flag %v, want %v", m.ID, m.Bad, bad[m.ID])
			}
		}
	}
}

func TestMajorityClassification(t *testing.T) {
	p := DefaultParams()
	g := &Graph{params: p, ov: overlay.NewChord(ring.New([]ring.Point{1, 2, 3}))}
	mk := func(badCount, size int) *Group {
		grp := &Group{Leader: 1}
		for i := 0; i < size; i++ {
			grp.Members = append(grp.Members, Member{ID: ring.Point(i), Bad: i < badCount})
		}
		return grp
	}
	grp := mk(3, 6) // exactly half bad → majority filtering broken → bad
	g.classify(grp)
	if !grp.Bad {
		t.Error("half-bad group must be classified bad under majority rule")
	}
	grp2 := mk(2, 6)
	g.classify(grp2)
	if grp2.Bad {
		t.Error("2/6 bad should be good under majority rule")
	}
}

func TestStrictClassification(t *testing.T) {
	p := DefaultParams()
	p.MajorityRule = false
	p.Beta, p.Delta = 0.1, 0.25
	g := &Graph{params: p, ov: overlay.NewChord(overlay.UniformRing(1024, rand.New(rand.NewSource(5))))}
	grp := &Group{Leader: 1}
	for i := 0; i < 8; i++ {
		grp.Members = append(grp.Members, Member{ID: ring.Point(i), Bad: i < 2})
	}
	g.classify(grp)
	// 2 bad of 8 = 0.25 > (1.25)(0.1) = 0.125 → bad under the strict rule.
	if !grp.Bad {
		t.Error("strict rule should flag 2/8 bad at beta=0.1")
	}
	grp.Members = grp.Members[:0]
	for i := 0; i < 8; i++ {
		grp.Members = append(grp.Members, Member{ID: ring.Point(i), Bad: i < 1})
	}
	g.classify(grp)
	if grp.Bad {
		t.Error("1/8 bad = 0.125 ≤ threshold → good")
	}
}

func TestUndersizedGroupIsBad(t *testing.T) {
	g, _ := buildTest(256, 0.0, 6)
	grp := &Group{Leader: 1, Members: []Member{{ID: 2}, {ID: 3}}}
	g.classify(grp)
	if !grp.Bad {
		t.Error("group below d1·ln ln n must be bad (definition (i))")
	}
}

func TestNoAdversaryMeansNoRedGroups(t *testing.T) {
	g, _ := buildTest(512, 0.0, 7)
	if f := g.RedFraction(); f != 0 {
		t.Errorf("red fraction %v with no adversary, want 0", f)
	}
	rng := rand.New(rand.NewSource(8))
	rob := g.MeasureRobustness(500, rng)
	if rob.SearchFailRate != 0 {
		t.Errorf("fail rate %v with no adversary, want 0", rob.SearchFailRate)
	}
}

func TestRedFractionSmallAtModestBeta(t *testing.T) {
	// Lemma 9 shape: with β = 0.05 and majority classification, the red
	// fraction should be well below 1/log²n at n = 4096.
	g, _ := buildTest(4096, 0.05, 9)
	bound := 1 / math.Pow(math.Log(4096), 1.5)
	if f := g.RedFraction(); f > bound {
		t.Errorf("red fraction %v exceeds 1/log^1.5 n = %v", f, bound)
	}
}

func TestSearchFailsExactlyOnRedGroups(t *testing.T) {
	g, _ := buildTest(512, 0.15, 10)
	rng := rand.New(rand.NewSource(11))
	r := g.Overlay().Ring()
	for i := 0; i < 300; i++ {
		si := rng.Intn(r.Len())
		key := ring.Point(rng.Uint64())
		res, _ := g.SearchOutcomeDualTo(nil, si, -1, key, nil)
		route, ok := g.Overlay().RouteRanks(nil, si, r.SuccessorIndex(key), key)
		if !ok || res.Hops < 1 || res.Hops > len(route) {
			t.Fatalf("search of %d hops over a route of %d (ok=%v)", res.Hops, len(route), ok)
		}
		path := route[:res.Hops]
		if res.OK {
			if res.FailedAt != -1 {
				t.Fatal("OK search must have FailedAt = -1")
			}
			for _, ri := range path {
				if g.GroupAt(int(ri)).Red() {
					t.Fatal("successful search traversed a red group")
				}
			}
			if got, want := r.At(res.LastRank), r.Successor(key); len(path) != len(route) || got != want {
				t.Fatalf("search ended at %v, want %v", got, want)
			}
		} else {
			if res.FailedAt != len(path)-1 {
				t.Fatalf("failed search FailedAt=%d, want its last hop %d", res.FailedAt, len(path)-1)
			}
			if !g.GroupAt(int(path[res.FailedAt])).Red() {
				t.Fatal("failed search must end at its first red group")
			}
			for _, ri := range path[:res.FailedAt] {
				if g.GroupAt(int(ri)).Red() {
					t.Fatal("search path contains a red group before FailedAt")
				}
			}
		}
	}
}

func TestSearchMessageAccounting(t *testing.T) {
	g, _ := buildTest(256, 0.0, 12)
	rng := rand.New(rand.NewSource(13))
	r := g.Overlay().Ring()
	sz := int64(g.GroupSize())
	for i := 0; i < 100; i++ {
		src := r.At(rng.Intn(r.Len()))
		key := ring.Point(rng.Uint64())
		res := g.SearchOutcome(src, key, nil)
		if !res.OK {
			t.Fatal("search must succeed with no adversary")
		}
		want := int64(res.Hops-1) * sz * sz
		if res.Messages != want {
			t.Fatalf("messages = %d, want %d (uniform group size)", res.Messages, want)
		}
	}
}

func TestConfusedGroupFailsSearches(t *testing.T) {
	g, _ := buildTest(256, 0.0, 14)
	r := g.Overlay().Ring()
	// Confuse one group and search directly for its leader's key space.
	victim := r.At(100)
	g.Group(victim).Confused = true
	if !g.Group(victim).Red() {
		t.Fatal("confused group must be red")
	}
	if res := g.SearchOutcome(victim, 0, nil); res.OK || res.FailedAt != 0 {
		t.Errorf("search initiated at a confused group must fail at once, got %+v", res)
	}
	g.Group(victim).Confused = false
	if g.Group(victim).Red() {
		t.Fatal("unconfusing must clear red status")
	}
}

func TestMeasureRobustnessAggregates(t *testing.T) {
	g, _ := buildTest(1024, 0.1, 15)
	rng := rand.New(rand.NewSource(16))
	rob := g.MeasureRobustness(400, rng)
	if rob.Samples != 400 || rob.N != 1024 {
		t.Error("metadata wrong")
	}
	if rob.SearchFailRate < 0 || rob.SearchFailRate > 1 {
		t.Error("fail rate out of range")
	}
	if rob.MeanMessages <= 0 {
		t.Error("message accounting missing")
	}
	if rob.MeanRouteLen <= 1 {
		t.Error("route length suspicious")
	}
}

func TestMeasureCosts(t *testing.T) {
	g, _ := buildTest(1024, 0.05, 17)
	rng := rand.New(rand.NewSource(18))
	c := g.MeasureCosts(200, rng)
	sz := g.GroupSize()
	if c.GroupCommMsgs != int64(sz*sz) {
		t.Errorf("group comm = %d, want |G|² = %d", c.GroupCommMsgs, sz*sz)
	}
	if c.MeanStatePerID <= 0 || c.MaxStatePerID < int(c.MeanStatePerID) {
		t.Error("state accounting inconsistent")
	}
	// Lemma 10 shape: expected membership is O(log log n) groups of size
	// O(log log n) plus neighbor links; state should be well below that of
	// a log-sized-group design (≈ log²n + deg·log n).
	logn := math.Log2(1024)
	if c.MeanStatePerID > logn*logn+logn*float64(sz) {
		t.Errorf("state %v looks too large for tiny groups", c.MeanStatePerID)
	}
}

func TestGroupsStableOrder(t *testing.T) {
	g, _ := buildTest(128, 0.1, 19)
	a := g.Groups()
	b := g.Groups()
	for i := range a {
		if a[i].Leader != b[i].Leader {
			t.Fatal("Groups() must iterate in stable ring order")
		}
	}
}
