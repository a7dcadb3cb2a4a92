package secroute

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

func build(n int, beta float64, seed int64) *groups.Graph {
	rng := rand.New(rand.NewSource(seed))
	pl := adversary.Place(adversary.Config{N: n, Beta: beta, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := groups.DefaultParams()
	params.Beta = beta
	return groups.Build(ov, pl.BadSet(), params, hashes.H1)
}

func TestDeliveryWithNoAdversary(t *testing.T) {
	g := build(512, 0, 1)
	rng := rand.New(rand.NewSource(2))
	r := g.Overlay().Ring()
	for i := 0; i < 200; i++ {
		src := r.At(rng.Intn(r.Len()))
		res := Route(g, src, ring.Point(rng.Uint64()))
		if !res.Delivered {
			t.Fatal("delivery must succeed with no adversary")
		}
		for _, h := range res.Hops {
			if !h.Intact {
				t.Fatal("every hop must be intact with no adversary")
			}
		}
	}
}

func TestDeliveryMatchesBluePathPrediction(t *testing.T) {
	// The protocol-level outcome must agree with the graph-level search
	// scoring: delivered ⟺ the overlay route avoids majority-bad groups.
	g := build(1024, 0.15, 3)
	rng := rand.New(rand.NewSource(4))
	r := g.Overlay().Ring()
	agree := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		src := r.At(rng.Intn(r.Len()))
		key := ring.Point(rng.Uint64())
		proto := Route(g, src, key)
		score := g.SearchOutcome(src, key, nil)
		if proto.Delivered == score.OK {
			agree++
		}
	}
	if agree != trials {
		t.Errorf("protocol and graph scoring disagree on %d/%d routes", trials-agree, trials)
	}
}

func TestMajorityFilteringInsideGoodGroups(t *testing.T) {
	// Good groups containing a bad *minority* must still deliver — the
	// heart of the paper's secure-routing claim.
	g := build(1024, 0.10, 5)
	rng := rand.New(rand.NewSource(6))
	r := g.Overlay().Ring()
	sawMixedGroupDelivery := false
	for i := 0; i < 400; i++ {
		src := r.At(rng.Intn(r.Len()))
		res := Route(g, src, ring.Point(rng.Uint64()))
		if !res.Delivered {
			continue
		}
		for hi, h := range res.Hops {
			grp := g.Group(h.Leader)
			if grp.BadCount() > 0 && !grp.Bad {
				sawMixedGroupDelivery = true
				if !h.Intact {
					t.Fatalf("hop %d: good group with bad minority lost the value", hi)
				}
			}
		}
	}
	if !sawMixedGroupDelivery {
		t.Error("test never exercised a mixed good group; raise beta or trials")
	}
}

func TestRedGroupBreaksChainPermanently(t *testing.T) {
	// Once a majority-bad group is traversed, no later hop can recover.
	g := build(512, 0.25, 7)
	rng := rand.New(rand.NewSource(8))
	r := g.Overlay().Ring()
	sawBreak := false
	for i := 0; i < 600 && !sawBreak; i++ {
		src := r.At(rng.Intn(r.Len()))
		res := Route(g, src, ring.Point(rng.Uint64()))
		if res.Delivered {
			continue
		}
		sawBreak = true
		broken := false
		for _, h := range res.Hops {
			if broken && h.GoodCopies > 0 {
				t.Fatal("value reappeared after a majority-bad hop")
			}
			if !h.Intact {
				broken = true
			}
		}
		if !broken {
			t.Fatal("undelivered route must contain a broken hop")
		}
	}
	if !sawBreak {
		t.Skip("no failed route at this seed; acceptable")
	}
}

func TestMessageAccountingQuadratic(t *testing.T) {
	g := build(256, 0, 9)
	rng := rand.New(rand.NewSource(10))
	r := g.Overlay().Ring()
	sz := int64(g.GroupSize())
	for i := 0; i < 50; i++ {
		src := r.At(rng.Intn(r.Len()))
		res := Route(g, src, ring.Point(rng.Uint64()))
		want := int64(len(res.Hops)-1) * sz * sz
		if res.Messages != want {
			t.Fatalf("messages = %d, want %d", res.Messages, want)
		}
	}
}

func TestSingleHopRoute(t *testing.T) {
	g := build(128, 0, 11)
	r := g.Overlay().Ring()
	src := r.At(0)
	res := Route(g, src, src) // src owns its own point
	if !res.Delivered || len(res.Hops) != 1 || res.Messages != 0 {
		t.Errorf("self-route: delivered=%v hops=%d msgs=%d", res.Delivered, len(res.Hops), res.Messages)
	}
}
