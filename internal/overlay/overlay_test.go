package overlay

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

func testRing(n int, seed int64) *ring.Ring {
	return UniformRing(n, rand.New(rand.NewSource(seed)))
}

// allGraphs builds every construction over the same ring.
func allGraphs(r *ring.Ring) []Graph {
	var gs []Graph
	for _, b := range Builders() {
		gs = append(gs, b.Build(r, 42))
	}
	return gs
}

// routeOf routes from the ring's si-th ID toward key.
func routeOf(g Graph, si int, key ring.Point) ([]int32, bool) {
	return g.RouteRanks(nil, si, g.Ring().SuccessorIndex(key), key)
}

func TestRouteTerminatesAtSuccessor(t *testing.T) {
	r := testRing(1024, 1)
	rng := rand.New(rand.NewSource(2))
	for _, g := range allGraphs(r) {
		for i := 0; i < 500; i++ {
			si := rng.Intn(r.Len())
			key := ring.Point(rng.Uint64())
			path, ok := routeOf(g, si, key)
			if !ok {
				t.Fatalf("%s: route %d failed to terminate", g.Name(), i)
			}
			if int(path[0]) != si {
				t.Fatalf("%s: path must start at src", g.Name())
			}
			if got, want := r.At(int(path[len(path)-1])), r.Successor(key); got != want {
				t.Fatalf("%s: route ended at %v, want suc(key)=%v", g.Name(), got, want)
			}
		}
	}
}

func TestRouteToOwnKeyIsTrivial(t *testing.T) {
	r := testRing(256, 3)
	for _, g := range allGraphs(r) {
		// A key owned by src: src itself.
		path, ok := routeOf(g, 7, r.At(7))
		if !ok || len(path) != 1 || path[0] != 7 {
			t.Errorf("%s: route to own key should be [src], got %v ok=%v", g.Name(), path, ok)
		}
	}
}

func TestRouteHopsAreNeighborEdges(t *testing.T) {
	// Every hop u→v on a route must satisfy v ∈ Neighbors(u): the paper's
	// secure-routing lifts exactly these edges to group-to-group all-to-all
	// exchanges, so a route using a non-edge would be unroutable in G.
	r := testRing(512, 5)
	rng := rand.New(rand.NewSource(6))
	for _, g := range allGraphs(r) {
		for i := 0; i < 100; i++ {
			path, ok := routeOf(g, rng.Intn(r.Len()), ring.Point(rng.Uint64()))
			if !ok {
				t.Fatalf("%s: route failed", g.Name())
			}
			for h := 0; h+1 < len(path); h++ {
				u, v := r.At(int(path[h])), r.At(int(path[h+1]))
				found := false
				for _, nb := range g.Neighbors(u) {
					if nb == v {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: hop %v→%v is not a graph edge", g.Name(), u, v)
				}
			}
		}
	}
}

func TestRouteLengthLogarithmic(t *testing.T) {
	// P1: D = O(log N). Check mean hops grows like log n, with generous
	// constants per construction.
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{256, 1024, 4096} {
		r := testRing(size, int64(size))
		logN := math.Log2(float64(size))
		for _, g := range allGraphs(r) {
			p := Measure(g, 300, rng)
			if p.FailedRoutes > 0 {
				t.Errorf("%s n=%d: %d failed routes", g.Name(), size, p.FailedRoutes)
			}
			if p.MeanHops > 6*logN {
				t.Errorf("%s n=%d: mean hops %.1f exceeds 6·log2 n = %.1f", g.Name(), size, p.MeanHops, 6*logN)
			}
		}
	}
}

func TestDegreeClasses(t *testing.T) {
	// P3: chord degree Θ(log n); de Bruijn and viceroy O(1) expected.
	r := testRing(4096, 11)
	rng := rand.New(rand.NewSource(12))
	logN := math.Log2(4096)
	for _, g := range allGraphs(r) {
		p := Measure(g, 50, rng)
		switch g.Name() {
		case "chord":
			if p.MeanDegree < logN/2 || p.MeanDegree > 3*logN {
				t.Errorf("chord degree %.1f not Θ(log n)=%.1f", p.MeanDegree, logN)
			}
		case "debruijn", "viceroy":
			if p.MeanDegree > 16 {
				t.Errorf("%s mean degree %.1f should be O(1)", g.Name(), p.MeanDegree)
			}
		}
	}
}

func TestCongestionBound(t *testing.T) {
	// P4: congestion C = O(log^c n / n) for a constant c. We check
	// C·n ≤ 2·log2(n)², i.e. c = 2 with constant 2 — ample for Chord and
	// de Bruijn and covering Viceroy's hot level-1 nodes.
	r := testRing(2048, 13)
	rng := rand.New(rand.NewSource(14))
	logN := math.Log2(2048)
	for _, g := range allGraphs(r) {
		p := Measure(g, 4000, rng)
		if p.CongestionXN > 2*logN*logN {
			t.Errorf("%s: congestion×n = %.1f exceeds 2·log²n = %.1f", g.Name(), p.CongestionXN, 2*logN*logN)
		}
	}
}

func TestLoadBalance(t *testing.T) {
	// P2: with u.a.r. IDs the max owned arc is O(log n / n); check
	// MaxLoad ≤ 3·ln n (balls-in-bins bound says ~ln n w.h.p.).
	r := testRing(4096, 15)
	rng := rand.New(rand.NewSource(16))
	g := NewChord(r)
	p := Measure(g, 10, rng)
	if p.MaxLoad > 3*math.Log(4096) {
		t.Errorf("max load %.2f exceeds 3·ln n", p.MaxLoad)
	}
}

func TestLemma5AdversarialSubsetPreservesProperties(t *testing.T) {
	// Lemma 5: properties survive when the adversary contributes an
	// arbitrary subset of its u.a.r. IDs. Adversary strategy here: draw 2βn
	// u.a.r. candidates, keep only those in [0, 1/2) (a worst-case-looking
	// clustered subset).
	rng := rand.New(rand.NewSource(17))
	const n = 2048
	const beta = 0.25
	good := make([]ring.Point, 0, n)
	for i := 0; i < int((1-beta)*n); i++ {
		good = append(good, ring.Point(rng.Uint64()))
	}
	for i := 0; i < int(2*beta*n); i++ {
		p := ring.Point(rng.Uint64())
		if p < ring.FromFloat(0.5) {
			good = append(good, p)
		}
	}
	r := ring.New(good)
	for _, g := range allGraphs(r) {
		p := Measure(g, 500, rng)
		if p.FailedRoutes > 0 {
			t.Errorf("%s: %d failed routes under adversarial subset", g.Name(), p.FailedRoutes)
		}
		logN := math.Log2(float64(r.Len()))
		if p.MeanHops > 6*logN {
			t.Errorf("%s: mean hops %.1f too large under adversarial subset", g.Name(), p.MeanHops)
		}
	}
}

func TestDeBruijnBase4(t *testing.T) {
	r := testRing(1024, 19)
	g := NewDeBruijn(r, 4)
	rng := rand.New(rand.NewSource(20))
	p := Measure(g, 300, rng)
	if p.FailedRoutes > 0 {
		t.Fatalf("base-4 de Bruijn: %d failed routes", p.FailedRoutes)
	}
	// Base-4 routes should be shorter than base-2 on the same ring.
	g2 := NewDeBruijn(r, 2)
	p2 := Measure(g2, 300, rng)
	if p.MeanHops >= p2.MeanHops {
		t.Errorf("base-4 mean hops %.1f should beat base-2 %.1f", p.MeanHops, p2.MeanHops)
	}
}

func TestDeBruijnRejectsBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDeBruijn(base=1) should panic")
		}
	}()
	NewDeBruijn(testRing(16, 21), 1)
}

func TestViceroyLevelsPartitionIDs(t *testing.T) {
	r := testRing(1024, 22)
	v := NewViceroy(r, 42).(*Viceroy)
	count := 0
	for l := 1; l <= v.levels; l++ {
		if lr := v.lvlRing(l); lr != nil {
			count += lr.Len()
		}
	}
	if count != r.Len() {
		t.Errorf("levels hold %d IDs, want %d", count, r.Len())
	}
	for i, l := range v.lvl {
		if l < 1 || l > v.levels {
			t.Errorf("level of ID %d = %d out of range", i, l)
		}
	}
}

func TestViceroyDeterministicInSeed(t *testing.T) {
	r := testRing(256, 23)
	v1 := NewViceroy(r, 7).(*Viceroy)
	v2 := NewViceroy(r, 7).(*Viceroy)
	v3 := NewViceroy(r, 8).(*Viceroy)
	same, diff := true, false
	for i := range r.Points() {
		if v1.lvl[i] != v2.lvl[i] {
			same = false
		}
		if v1.lvl[i] != v3.lvl[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed must give same levels")
	}
	if !diff {
		t.Error("different seeds should give different levels")
	}
}

func TestNeighborsExcludeSelf(t *testing.T) {
	r := testRing(512, 24)
	for _, g := range allGraphs(r) {
		for _, w := range r.Points()[:32] {
			for _, nb := range g.Neighbors(w) {
				if nb == w {
					t.Errorf("%s: Neighbors(%v) contains self", g.Name(), w)
				}
			}
		}
	}
}

func TestTinyRings(t *testing.T) {
	// Constructions must not break on degenerate sizes.
	for _, n := range []int{2, 3, 5} {
		r := testRing(n, int64(100+n))
		rng := rand.New(rand.NewSource(25))
		for _, g := range allGraphs(r) {
			for i := 0; i < 50; i++ {
				if _, ok := routeOf(g, rng.Intn(r.Len()), ring.Point(rng.Uint64())); !ok {
					t.Errorf("%s n=%d: route failed", g.Name(), n)
				}
			}
		}
	}
}
