package repro

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/pow"
	"repro/internal/ring"
	"repro/internal/secroute"
	"repro/internal/sim"
	"repro/tinygroups"
)

// Profiling benchmarks, one per hot substrate, in the conventional per-op
// style: run one under -cpuprofile/-memprofile to see where its time goes.
// The recorded numbers live in the bench/ module (go run -C bench .), and
// the paper's tables are pinned by the experiments package's golden tests.

func benchRing(n int, seed int64) *ring.Ring {
	return overlay.UniformRing(n, rand.New(rand.NewSource(seed)))
}

func BenchmarkRingSuccessor(b *testing.B) {
	r := benchRing(1<<16, 1)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Successor(ring.Point(rng.Uint64()))
	}
}

func BenchmarkHashPoint(b *testing.B) {
	data := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.H1.Point(data)
	}
}

func BenchmarkHashOfPoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.F.OfPoint(ring.Point(i))
	}
}

func BenchmarkHashPointsAt(b *testing.B) {
	dst := make([]ring.Point, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.H1.PointsAt(ring.Point(i), len(dst), dst)
	}
}

func BenchmarkXORInto(b *testing.B) {
	x := make([]byte, 32)
	y := make([]byte, 32)
	dst := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.XORInto(dst, x, y)
	}
}

// benchRingNode sends one allocation-free message to each ring neighbor per
// round, so BenchmarkSimRound isolates the runtime's own per-round overhead.
type benchRingNode struct {
	left, right sim.NodeID
	out         []sim.Message
}

func (n *benchRingNode) Step(round int, inbox []sim.Message) []sim.Message {
	n.out = n.out[:0]
	n.out = append(n.out,
		sim.Message{To: n.left, Payload: "m"},
		sim.Message{To: n.right, Payload: "m"})
	return n.out
}

// BenchmarkSimRound measures one steady-state synchronous round on a fixed
// 256-node ring topology (512 messages routed per round).
func BenchmarkSimRound(b *testing.B) {
	const n = 256
	nodes := make([]sim.Node, n)
	adj := make([][]sim.NodeID, n)
	for i := range nodes {
		l, r := sim.NodeID((i+n-1)%n), sim.NodeID((i+1)%n)
		nodes[i] = &benchRingNode{left: l, right: r}
		adj[i] = []sim.NodeID{l, r}
	}
	nw := sim.New(nodes)
	nw.SetTopology(adj)
	b.ReportAllocs()
	b.ResetTimer()
	nw.Run(b.N)
}

// BenchmarkGroupsBuild measures group-graph construction alone (overlay
// built once outside the loop), the hot path of every epoch.
func BenchmarkGroupsBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pl := adversary.Place(adversary.Config{N: 1 << 12, Beta: 0.05, Strategy: adversary.Uniform}, rng)
	params := groups.DefaultParams()
	params.Beta = 0.05
	ov := overlay.NewChord(pl.Ring())
	bad := pl.BadSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups.Build(ov, bad, params, hashes.H1)
	}
}

// benchRoute times rank routes from random ring IDs to random keys, one
// reused buffer across the loop.
func benchRoute(b *testing.B, g overlay.Graph, rng *rand.Rand) {
	r := g.Ring()
	var route []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := ring.Point(rng.Uint64())
		route, _ = g.RouteRanks(route, rng.Intn(r.Len()), r.SuccessorIndex(key), key)
	}
}

func BenchmarkChordRoute(b *testing.B) {
	r := benchRing(1<<14, 3)
	g := overlay.NewChord(r)
	rng := rand.New(rand.NewSource(4))
	benchRoute(b, g, rng)
}

// BenchmarkNewChord measures the neighbor-table build, which runs
// serially once per epoch before the per-ID construction fans out.
func BenchmarkNewChord(b *testing.B) {
	r := benchRing(1<<14, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overlay.NewChord(r)
	}
}

func BenchmarkDeBruijnRoute(b *testing.B) {
	r := benchRing(1<<14, 5)
	g := overlay.NewDeBruijn(r, 2)
	rng := rand.New(rand.NewSource(6))
	benchRoute(b, g, rng)
}

func BenchmarkViceroyRoute(b *testing.B) {
	r := benchRing(1<<14, 7)
	g := overlay.NewViceroy(r, 7)
	rng := rand.New(rand.NewSource(8))
	benchRoute(b, g, rng)
}

func BenchmarkGroupSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	pl := adversary.Place(adversary.Config{N: 1 << 12, Beta: 0.05, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := groups.DefaultParams()
	params.Beta = 0.05
	g := groups.Build(ov, pl.BadSet(), params, hashes.H1)
	n := ov.Ring().Len()
	var sc groups.SearchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SearchOutcomeDualTo(nil, rng.Intn(n), -1, ring.Point(rng.Uint64()), &sc)
	}
}

func BenchmarkPoWSolve(b *testing.B) {
	p := pow.Params{Tau: ring.Point(^uint64(0) >> 8), StringLen: 32}
	rng := rand.New(rand.NewSource(11))
	rstr := pow.EpochString(1, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pow.Solve(rstr, p, rng, 1<<20)
	}
}

// BenchmarkSolveSharded profiles the mining engine at one explicit worker,
// so ns/op tracks the per-attempt hash cost rather than scheduling, with
// throughput surfaced as hashes/s.
func BenchmarkSolveSharded(b *testing.B) {
	p := pow.Params{Tau: ring.Point(^uint64(0) >> 10), StringLen: 32}
	rstr := pow.EpochString(1, 0, 32)
	attempts := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, ok := pow.SolveSharded(rstr, p, int64(i+1), 1<<20, 1)
		if !ok {
			b.Fatal("solve failed")
		}
		attempts += int64(sol.Attempts)
	}
	b.ReportMetric(float64(attempts)/b.Elapsed().Seconds(), "hashes/s")
}

func BenchmarkPoWVerifyBatch(b *testing.B) {
	p := pow.Params{Tau: ring.Point(^uint64(0) >> 4), StringLen: 32}
	rstr := pow.EpochString(1, 0, 32)
	claims := make([]pow.Claim, 256)
	for i := range claims {
		sol, ok := pow.SolveSharded(rstr, p, int64(i+1), 1<<16, 0)
		if !ok {
			b.Fatal("setup solve failed")
		}
		claims[i] = pow.Claim{ID: sol.ID, Sigma: sol.Sigma}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pow.VerifyBatch(claims, rstr, p, 0)
	}
}

func BenchmarkEngineMapOverhead(b *testing.B) {
	cfg := engine.Config{RootSeed: 1}
	for i := 0; i < b.N; i++ {
		engine.Map(cfg, "bench", 64, func(_ int, rng *rand.Rand) float64 {
			return rng.Float64()
		})
	}
}

func BenchmarkPhaseKingAgreement(b *testing.B) {
	prefs := make([]int, 12)
	for i := range prefs {
		prefs[i] = i % 2
	}
	byz := map[int]bool{3: true, 8: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba.Run(12, 2, prefs, byz, "equivocate")
	}
}

func BenchmarkCuckooEvent(b *testing.B) {
	// Parameters that survive the attack (per E10), so all b.N events run,
	// at E10's n: at n = 1<<10 a per-event cost linear in n is too small to
	// show next to the rest of the event.
	res := baseline.RunCuckoo(baseline.CuckooConfig{
		N: 1 << 13, Beta: 0.002, K: 4, GroupSize: 64,
		Events: b.N, Targeted: true, Seed: 13,
	})
	if !res.Survived && b.N > 1000 {
		b.Fatalf("cuckoo died at event %d; per-event timing invalid", res.SurvivedEvents)
	}
}

func BenchmarkSecureRouteProtocol(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	pl := adversary.Place(adversary.Config{N: 1 << 12, Beta: 0.05, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := groups.DefaultParams()
	params.Beta = 0.05
	g := groups.Build(ov, pl.BadSet(), params, hashes.H1)
	r := ov.Ring()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := r.At(rng.Intn(r.Len()))
		secroute.Route(g, src, ring.Point(rng.Uint64()))
	}
}

// BenchmarkRunEpoch measures one steady-state epoch (defaults) at a single
// worker — the sequential-pipeline cost — at n = 1024, where the whole
// construction fits in L2, and at the served size n = 16384, where the
// route walk's working set decides the cost.
func BenchmarkRunEpoch(b *testing.B) {
	benchRunEpochSizes(b, 1)
}

// BenchmarkRunEpochParallel is BenchmarkRunEpoch at the default worker
// count (GOMAXPROCS) — results are byte-identical to the 1-worker run; only
// wall-clock moves.
func BenchmarkRunEpochParallel(b *testing.B) {
	benchRunEpochSizes(b, 0)
}

func benchRunEpochSizes(b *testing.B, workers int) {
	for _, n := range []int{1024, 16384} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			cfg := epoch.DefaultConfig(n)
			cfg.Seed = 1
			cfg.Workers = workers
			s, err := epoch.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunEpoch()
			}
		})
	}
}

func BenchmarkLotteryRound(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	r := overlay.UniformRing(256, rng)
	ov := overlay.NewChord(r)
	adj := pow.BuildAdjacency(ov)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := pow.DefaultLotteryConfig(256, 1<<14)
		cfg.Seed = int64(i + 1)
		pow.RunLottery(cfg, adj)
	}
}

// BenchmarkLookupParallel measures the lock-free snapshot read path under
// contention: every P runs Lookups concurrently against one System, each
// drawing a pooled scratch and resolving against the atomically-loaded
// epoch generation. Scaling with -cpu is the tentpole claim — reads share
// no locks, so throughput should track GOMAXPROCS.
func BenchmarkLookupParallel(b *testing.B) {
	sys, err := tinygroups.New(4096, tinygroups.WithBeta(0.05), tinygroups.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "par-" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_, _ = sys.Lookup(ctx, keys[i%len(keys)])
			i++
		}
	})
}
