package ring

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.25, 0.5, 0.75, 0.999999, 1.0 / 3}
	for _, f := range cases {
		p := FromFloat(f)
		if got := p.float(); math.Abs(got-f) > 1e-12 {
			t.Errorf("FromFloat(%v).float() = %v", f, got)
		}
	}
}

func TestFromFloatReducesModuloOne(t *testing.T) {
	if FromFloat(1.25) != FromFloat(0.25) {
		t.Errorf("FromFloat(1.25) != FromFloat(0.25)")
	}
	if FromFloat(-0.25) != FromFloat(0.75) {
		t.Errorf("FromFloat(-0.25) = %v, want FromFloat(0.75) = %v", FromFloat(-0.25), FromFloat(0.75))
	}
}

func TestDistWraps(t *testing.T) {
	a, b := FromFloat(0.9), FromFloat(0.1)
	if d := a.Dist(b).float(); math.Abs(d-0.2) > 1e-9 {
		t.Errorf("Dist(0.9, 0.1) = %v, want 0.2", d)
	}
	if d := b.Dist(a).float(); math.Abs(d-0.8) > 1e-9 {
		t.Errorf("Dist(0.1, 0.9) = %v, want 0.8", d)
	}
}

func TestDistIdentity(t *testing.T) {
	p := FromFloat(0.42)
	if p.Dist(p) != 0 {
		t.Errorf("Dist(p,p) = %v, want 0", p.Dist(p))
	}
}

// between reports whether x lies in the clockwise half-open arc (p, q]:
// the successor-ownership test, suc(k) owns exactly the keys k with
// between(pred, suc, k). TestSuccessorOwnsArc uses it as its oracle.
func between(p, q, x Point) bool {
	return p.Dist(x) != 0 && p.Dist(x) <= p.Dist(q)
}

func TestBetween(t *testing.T) {
	p, q := FromFloat(0.2), FromFloat(0.6)
	if !between(p, q, FromFloat(0.4)) {
		t.Error("0.4 should be in (0.2, 0.6]")
	}
	if !between(p, q, q) {
		t.Error("arc is half-open: q should be in (p, q]")
	}
	if between(p, q, p) {
		t.Error("arc is half-open: p should not be in (p, q]")
	}
	if between(p, q, FromFloat(0.8)) {
		t.Error("0.8 should not be in (0.2, 0.6]")
	}
	// Wrapping arc.
	if !between(q, p, FromFloat(0.9)) {
		t.Error("0.9 should be in wrapping arc (0.6, 0.2]")
	}
	if !between(q, p, FromFloat(0.1)) {
		t.Error("0.1 should be in wrapping arc (0.6, 0.2]")
	}
}

func mustRing(fs ...float64) *Ring {
	pts := make([]Point, len(fs))
	for i, f := range fs {
		pts[i] = FromFloat(f)
	}
	return New(pts)
}

func TestSuccessorBasics(t *testing.T) {
	r := mustRing(0.1, 0.4, 0.7)
	cases := []struct{ x, want float64 }{
		{0.05, 0.1}, {0.1, 0.1}, {0.2, 0.4}, {0.4, 0.4},
		{0.5, 0.7}, {0.7, 0.7}, {0.8, 0.1}, {0.0, 0.1},
	}
	for _, c := range cases {
		got := r.Successor(FromFloat(c.x))
		if got != FromFloat(c.want) {
			t.Errorf("Successor(%v) = %v, want %v", c.x, got.float(), c.want)
		}
	}
}

func TestStrictSuccessorAndPredecessor(t *testing.T) {
	r := mustRing(0.1, 0.4, 0.7)
	if got := r.StrictSuccessor(FromFloat(0.1)); got != FromFloat(0.4) {
		t.Errorf("StrictSuccessor(0.1) = %v, want 0.4", got.float())
	}
	if got := r.StrictSuccessor(FromFloat(0.7)); got != FromFloat(0.1) {
		t.Errorf("StrictSuccessor(0.7) = %v, want 0.1 (wrap)", got.float())
	}
	if got := r.Predecessor(FromFloat(0.1)); got != FromFloat(0.7) {
		t.Errorf("Predecessor(0.1) = %v, want 0.7 (wrap)", got.float())
	}
	if got := r.Predecessor(FromFloat(0.5)); got != FromFloat(0.4) {
		t.Errorf("Predecessor(0.5) = %v, want 0.4", got.float())
	}
}

func TestNewDedupes(t *testing.T) {
	r := mustRing(0.5, 0.5, 0.5, 0.2)
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2 after dedupe", r.Len())
	}
}

func TestOwnedArcSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point(rng.Uint64())
	}
	r := New(pts)
	sum := 0.0
	for _, p := range r.Points() {
		sum += r.OwnedArc(p)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum of owned arcs = %v, want 1", sum)
	}
}

func TestSuccessorOwnsArc(t *testing.T) {
	// For any key x, suc(x) must be the owner: x in (pred(suc), suc].
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point(rng.Uint64())
	}
	r := New(pts)
	for trial := 0; trial < 1000; trial++ {
		x := Point(rng.Uint64())
		s := r.Successor(x)
		pred := r.Predecessor(s)
		if x != s && !between(pred, s, x) {
			t.Fatalf("Successor(%v) = %v does not own the key", x, s)
		}
	}
}

func TestEmptyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Successor on empty ring should panic")
		}
	}()
	New(nil).Successor(0)
}

// Property: Successor is idempotent and returns a member of the ring.
func TestSuccessorPropertyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point(rng.Uint64())
	}
	r := New(pts)
	f := func(x uint64) bool {
		s := r.Successor(Point(x))
		return r.Contains(s) && r.Successor(s) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist satisfies the cyclic triangle identity
// Dist(a,b) + Dist(b,c) ≡ Dist(a,c) (mod 1).
func TestDistCyclicAdditivity(t *testing.T) {
	f := func(a, b, c uint64) bool {
		pa, pb, pc := Point(a), Point(b), Point(c)
		return pa.Dist(pb)+pb.Dist(pc) == pa.Dist(pc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSearchMatchesSortSearch cross-checks the interpolation-first search
// against the sort.Search specification (smallest i with pts[i] >= x) on
// uniform, clustered and degenerate point sets — the distributions the
// adversary's placement strategies produce.
func TestSearchMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rings := map[string]*Ring{}

	uniform := make([]Point, 4096)
	for i := range uniform {
		uniform[i] = Point(rng.Uint64())
	}
	rings["uniform"] = New(uniform)

	clustered := make([]Point, 2048)
	for i := range clustered {
		// All points inside a 2^-20 arc: worst case for interpolation.
		clustered[i] = Point(1<<44) + Point(rng.Uint64()>>20)
	}
	rings["clustered"] = New(clustered)

	mixed := append(append([]Point{}, uniform[:512]...), clustered[:512]...)
	rings["mixed"] = New(mixed)
	rings["single"] = New([]Point{Point(1 << 63)})
	rings["pair"] = New([]Point{0, ^Point(0)})

	for name, r := range rings {
		pts := r.Points()
		check := func(x Point) {
			want := sort.Search(len(pts), func(i int) bool { return pts[i] >= x })
			var got int
			if want == len(pts) {
				// search is internal; exercise it through SuccessorIndex,
				// which wraps len(pts) to 0.
				if gi := r.SuccessorIndex(x); gi != 0 {
					t.Fatalf("%s: SuccessorIndex(%v) = %d, want wrap to 0", name, x, gi)
				}
				return
			}
			got = r.SuccessorIndex(x)
			if got != want {
				t.Fatalf("%s: SuccessorIndex(%v) = %d, want %d", name, x, got, want)
			}
		}
		for i := 0; i < 4000; i++ {
			check(Point(rng.Uint64()))
		}
		for _, p := range pts { // exact hits and off-by-one probes
			check(p)
			check(p + 1)
			check(p - 1)
		}
		check(0)
		check(^Point(0))
	}
}

// TestSuccessorIndex pins the rank-returning successor variant to Successor.
func TestSuccessorIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]Point, 257)
	for i := range pts {
		pts[i] = Point(rng.Uint64())
	}
	r := New(pts)
	for i := 0; i < 2000; i++ {
		x := Point(rng.Uint64())
		idx := r.SuccessorIndex(x)
		if r.At(idx) != r.Successor(x) {
			t.Fatalf("At(SuccessorIndex(%v)) = %v, Successor = %v", x, r.At(idx), r.Successor(x))
		}
	}
	// Exact membership is its own successor.
	for i := 0; i < r.Len(); i++ {
		if r.SuccessorIndex(r.At(i)) != i {
			t.Fatalf("point at rank %d is not its own successor", i)
		}
	}
}
