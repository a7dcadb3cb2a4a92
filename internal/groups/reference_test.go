package groups_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/epoch"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

// searchRef is the reference search: the point-form loop that walks a
// route ID by ID, resolves each ID's group through Group, and charges
// all-to-all messages until the route completes or reaches its first red
// group.
func searchRef(g *groups.Graph, route []ring.Point, ok bool) groups.Outcome {
	res := groups.Outcome{FailedAt: -1, LastRank: -1}
	if !ok {
		res.Hops = len(route)
		return res
	}
	res.LastRank, _ = g.Overlay().Ring().Index(route[len(route)-1])
	var prev *groups.Group
	for i, w := range route {
		grp := g.Group(w)
		res.Hops++
		if grp == nil {
			res.FailedAt = i
			return res
		}
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

// referenceCase is one pair of group graphs sharing an overlay, plus the
// SHA-256 of the point routes the overlay took, before routes were
// expressed as ring ranks, for the pairs TestSearchMatchesPointReference
// draws.
type referenceCase struct {
	name   string
	g1, g2 *groups.Graph
	digest string
}

// referenceCases builds, for every overlay, a static graph pair and a
// dynamic generation whose first graph has confused groups.
func referenceCases(t *testing.T) []referenceCase {
	t.Helper()
	digests := map[string][2]string{
		"chord":    {"d98522b442ecf09994d28f93f23844f1c2c1a4ec7a89eb8f5633f4078e620249", "08127cf1416fd97135b8369456a406d2fbf96b6ee9d5021aa56c6cfb3ff331b8"},
		"debruijn": {"119daf297ef907c1502953830b13d9354d20aeb066580b4a60426170d7722643", "d8b96ec2937573e797efa034b9d477cb9f0b852710b4769adef7499ea3e5c010"},
		"viceroy":  {"c30ef4ee6368ae399be18af7b3f62141f5738518d0d328ed80d1305039972d69", "c366f0ad37a715370284d773adcb49d1d89502c5b5f236155f6e7ae3c842d392"},
	}
	var cases []referenceCase
	for _, b := range overlay.Builders() {
		rng := rand.New(rand.NewSource(71))
		pl := adversary.Place(adversary.Config{N: 512, Beta: 0.15, Strategy: adversary.Uniform}, rng)
		ov := b.Build(pl.Ring(), 7)
		params := groups.DefaultParams()
		params.Beta = 0.15
		cases = append(cases, referenceCase{"static " + b.Name,
			groups.Build(ov, pl.BadSet(), params, hashes.H1),
			groups.Build(ov, pl.BadSet(), params, hashes.H2),
			digests[b.Name][0]})

		cfg := epoch.DefaultConfig(256)
		cfg.Seed = 5
		cfg.Overlay = b.Name
		cfg.Params.Beta = 0.12
		sys, err := epoch.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.RunEpoch()
		gs := sys.Generation().Graphs
		confused := 0
		for rank := 0; rank < gs[0].N(); rank++ {
			grp := gs[0].GroupAt(rank)
			if grp.Confused {
				confused++
			}
		}
		if confused == 0 || confused == gs[0].N() {
			t.Fatalf("dynamic %s: %d of %d groups confused, want some", b.Name, confused, gs[0].N())
		}
		cases = append(cases, referenceCase{"dynamic " + b.Name, gs[0], gs[1], digests[b.Name][1]})
	}
	return cases
}

// TestSearchMatchesPointReference checks the rank-form search primitive,
// single and dual, against the reference walk over each overlay's point
// routes for 300 random (src, key) pairs, and pins those routes to the
// ones the point-form overlays took.
func TestSearchMatchesPointReference(t *testing.T) {
	for _, c := range referenceCases(t) {
		ov := c.g1.Overlay()
		r := ov.Ring()
		rng := rand.New(rand.NewSource(72))
		h := sha256.New()
		var buf [8]byte
		var sc groups.SearchScratch
		for i := 0; i < 300; i++ {
			si := rng.Intn(r.Len())
			key := ring.Point(rng.Uint64())
			ranks, ok := ov.RouteRanks(nil, si, r.SuccessorIndex(key), key)
			route := make([]ring.Point, len(ranks))
			for j, ri := range ranks {
				route[j] = r.At(int(ri))
			}
			binary.BigEndian.PutUint64(buf[:], uint64(len(route)))
			h.Write(buf[:])
			if ok {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			for _, p := range route {
				binary.BigEndian.PutUint64(buf[:], uint64(p))
				h.Write(buf[:])
			}

			want1, want2 := searchRef(c.g1, route, ok), searchRef(c.g2, route, ok)
			single, _ := c.g1.SearchOutcomeDualTo(nil, si, -1, key, &sc)
			d1, d2 := c.g1.SearchOutcomeDualTo(c.g2, si, r.SuccessorIndex(key), key, &sc)
			point := c.g1.SearchOutcome(r.At(si), key, &sc)
			for _, got := range []struct {
				form      string
				got, want groups.Outcome
			}{{"single", single, want1}, {"point", point, want1}, {"dual 1", d1, want1}, {"dual 2", d2, want2}} {
				if got.got != got.want {
					t.Fatalf("%s pair %d %s: got %+v, want %+v", c.name, i, got.form, got.got, got.want)
				}
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
			t.Errorf("%s: routes digest %s, want %s", c.name, got, c.digest)
		}
	}
}

// TestMeasureCostsMatchesMembershipIndex checks MeasureCosts against the
// reference accounting over a member → leaders index, before and after
// departures shrink some groups.
func TestMeasureCostsMatchesMembershipIndex(t *testing.T) {
	for _, c := range referenceCases(t) {
		checkCosts(t, c.name, c.g1)
		departed := map[ring.Point]bool{}
		for i, p := range c.g1.Overlay().Ring().Points() {
			if i%5 == 0 {
				departed[p] = true
			}
		}
		c.g1.RemoveMembers(departed)
		checkCosts(t, c.name+" after departures", c.g1)
	}
}

// checkCosts compares g.MeasureCosts with the reference accounting.
func checkCosts(t *testing.T, name string, g *groups.Graph) {
	t.Helper()
	memberOf := map[ring.Point][]ring.Point{}
	for rank := 0; rank < g.N(); rank++ {
		grp := g.GroupAt(rank)
		for _, m := range grp.Members {
			memberOf[m.ID] = append(memberOf[m.ID], grp.Leader)
		}
	}
	r := g.Overlay().Ring()
	rng := rand.New(rand.NewSource(73))
	want := groups.Costs{GroupSize: g.GroupSize(), GroupCommMsgs: int64(g.GroupSize()) * int64(g.GroupSize())}
	const samples = 200
	total, hops := 0, 0
	var hopCost int64
	for i := 0; i < samples; i++ {
		u := r.At(rng.Intn(r.Len()))
		state := 0
		for _, leader := range memberOf[u] {
			state += g.Group(leader).Size()
		}
		for _, nb := range g.Overlay().Neighbors(u) {
			if grp := g.Group(nb); grp != nil {
				state += grp.Size()
				hopCost += int64(g.Group(u).Size()) * int64(grp.Size())
				hops++
			}
		}
		total += state
		want.MaxStatePerID = max(want.MaxStatePerID, state)
	}
	want.MeanStatePerID = float64(total) / samples
	want.RoutingMsgsPerHop = float64(hopCost) / float64(hops)
	if got := g.MeasureCosts(samples, rand.New(rand.NewSource(73))); got != want {
		t.Errorf("%s: MeasureCosts = %+v, want %+v", name, got, want)
	}
}
