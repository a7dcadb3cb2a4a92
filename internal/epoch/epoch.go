// Package epoch implements the paper's dynamic construction (§III): time is
// divided into epochs; during epoch j the system holds two old group graphs
// G₁^{j−1}, G₂^{j−1} and builds two new ones G₁^j, G₂^j for the IDs that
// will be active in epoch j+1.
//
// Every step of the construction — locating a group member suc(h_ℓ(w,i)),
// locating a neighbor, or verifying either kind of request — is performed
// by searching in *both* old graphs; a step is corrupted only when both
// searches fail (probability q_f², the crux of Lemma 9's error
// non-accumulation). Setting Config.TwoGraphs to false gives the naive
// single-graph protocol the paper argues against, used as the E5 ablation.
//
// # Parallel construction
//
// The per-ID work of an epoch — member-point location, request
// verification, neighbor establishment for one new ID w — touches only the
// two *immutable* old graphs and the new overlay, so the construction is
// embarrassingly parallel per new ID. RunEpoch exploits that: every new ID
// draws its randomness from a private stream derived by hashing
// (epoch seed, rank of w), exactly the engine.TrialSeed scheme the
// experiment runner uses per trial, and the per-ID tasks fan out through
// engine.ForEach, one fan-out per phase, writing into rank-indexed arenas.
// A System holds no goroutines between builds. Randomness never depends on
// scheduling and tallies are integer sums, so Stats and the resulting
// graphs are bit-identical at every Config.Workers setting.
package epoch

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

// Config parameterizes a dynamic system.
type Config struct {
	N       int           // system size (constant under churn, §III model)
	Params  groups.Params //
	Overlay string        // input-graph construction: "chord", "debruijn", "viceroy"
	// TwoGraphs selects the paper's two-group-graph protocol; false runs
	// the naive single-graph ablation.
	TwoGraphs bool
	// Strategy is the adversary's ID-subset strategy for each epoch's βn
	// freshly minted bad IDs.
	Strategy adversary.Strategy
	// VerifyRequests enables the §III-A request-verification step
	// (disabling it exposes the state-blowup spam attack of Lemma 10/E12).
	VerifyRequests bool
	// SpamFactor: bogus group-membership requests per bad ID per epoch.
	SpamFactor int
	// MidEpochDepartures is the fraction of good IDs that go offline
	// during each epoch after construction (0 = none). The §III model
	// guarantees good groups survive as long as no group loses more than
	// an ε'/2 = (1−2(1+δ)β)/2 fraction of its good members.
	MidEpochDepartures float64
	// SizeDrift exercises the paper's "system size is Θ(n)" remark (§III):
	// each epoch the population alternates between N·(1−drift) and
	// N·(1+drift). Zero keeps the size constant (the default model).
	SizeDrift float64
	// Workers caps the construction fan-out; 0 means GOMAXPROCS. It
	// affects wall-clock only: per-ID randomness streams make every result
	// identical at every setting.
	Workers int
	Seed    int64
}

// DefaultConfig returns a paper-faithful configuration. Beta defaults to
// 0.05: the paper requires β "sufficiently small", and at simulable n the
// dynamic construction's error-feedback loop (confusion ∝ q_f²·|L_w|,
// Lemma 8) converges comfortably at 0.05 with |G| = Θ(log log n) but needs
// larger group-size constants beyond β ≈ 0.1 — exactly the knee experiment
// E8 exhibits.
func DefaultConfig(n int) Config {
	params := groups.DefaultParams()
	params.Beta = 0.05
	// Dynamic stability needs a larger d₂ than the static case: the
	// confusion feedback of Lemma 8 (red' ≈ p_bad + Θ(|L_w|)·q_f²) only
	// converges when p_bad is small against the Θ(log n)-sized confusion
	// surface |L_w|. Empirically (stability probes over seeds and sizes),
	// |G| = 8 is stable at n ≈ 10³ but marginal by n ≈ 4·10³; d₂ = 4.5
	// (|G| = 8–11 across simulable n — still far below the Θ(log n) ≈
	// 14–64 of prior work) holds a comfortable margin through n = 4096.
	// The E5/E8/E20 experiments map the divergence boundary.
	params.D2 = 4.5
	params.MinSize = 8
	return Config{
		N:              n,
		Params:         params,
		Overlay:        "chord",
		TwoGraphs:      true,
		Strategy:       adversary.Uniform,
		VerifyRequests: true,
		Seed:           1,
	}
}

// Stats reports one epoch's construction outcome.
type Stats struct {
	Epoch int
	// N is the population size of the generation built this epoch (differs
	// from Config.N only under SizeDrift).
	N int
	// QfSingle / QfDual are the measured failure probabilities of a single
	// old-graph search and of the both-graphs-fail event (≈ q_f and q_f²).
	QfSingle, QfDual float64
	// RedFraction is the red-group fraction of each new graph (p_f of S2).
	RedFraction [2]float64
	// SearchFailRate is the post-construction failure rate of searches in
	// the new graphs (Theorem 3's second bullet, complemented).
	SearchFailRate float64
	// ForcedBadMembers counts member slots the adversary captured because
	// both location searches failed.
	ForcedBadMembers int
	// ErroneousRejects counts good IDs that wrongly rejected a valid
	// membership/neighbor request (both verification searches failed).
	ErroneousRejects int
	// SpamAccepted counts bogus requests that slipped past verification
	// (or all of them when verification is off).
	SpamAccepted int
	// MeanMemberships is the mean number of groups a good serving ID
	// belongs to across the new graphs (Lemma 10: O(log log n)).
	MeanMemberships float64
	// DepartedMembers / MajoritiesLost report the mid-epoch departure
	// erosion (zero unless Config.MidEpochDepartures > 0).
	DepartedMembers int
	MajoritiesLost  int
	// SearchMessages is the total secure-routing message cost of all
	// construction searches this epoch.
	SearchMessages int64
	Searches       int64
}

// tally accumulates one worker's integer counters for a parallel phase.
// Integer sums commute, so merging per-worker tallies in worker order gives
// the same totals as the sequential loop regardless of which worker ran
// which ID.
type tally struct {
	searches  int64
	messages  int64
	singles   int
	duals     int
	forcedBad int
	errReject int
	spamAcc   int
}

func (t *tally) add(o *tally) {
	t.searches += o.searches
	t.messages += o.messages
	t.singles += o.singles
	t.duals += o.duals
	t.forcedBad += o.forcedBad
	t.errReject += o.errReject
	t.spamAcc += o.spamAcc
}

// workerScratch is one worker's private reusable state. The trailing pad
// keeps adjacent workers' hot tallies off a shared cache line.
type workerScratch struct {
	sc    groups.SearchScratch
	ptBuf []ring.Point
	t     tally
	_     [64]byte
}

// Generation is one serving generation as an immutable value: the epoch
// index, the ID ring, the two group graphs built for it (Graphs[1] is nil
// in single-graph mode), and the adversary's IDs with the rank indexes the
// next epoch's construction reads, all derived once by newGeneration. Once
// published it is never mutated — the next epoch is built as a complete
// replacement off to the side and published in one atomic store — so any
// number of goroutines may search a Generation's graphs concurrently (with
// private SearchScratch buffers) while the next epoch is under
// construction, and a holder keeps a consistent pre-swap view for as long
// as it pins the pointer.
type Generation struct {
	Epoch  int
	Ring   *ring.Ring
	Graphs [2]*groups.Graph

	// badList holds the adversary's IDs in minting order, so bad-ID
	// substitution is a pure function of the per-ID stream.
	badList []ring.Point
	// badRank flags the bad IDs by ring rank — the branch-free form the
	// per-member inner loop reads.
	badRank []bool
	// goodRank holds the good IDs' ring ranks in ring order, so the spam
	// phase never rescans the ring.
	goodRank []int32
	// blueRank holds the ring ranks of the bootstrap candidates, the
	// leaders blue in every graph: bootstrap leaders enter the dual search
	// as precomputed ranks, skipping the per-route src lookup.
	blueRank []int32
}

// newGeneration is the one constructor of a Generation, whether it comes
// from New, an epoch build or Restore: it derives the rank indexes from
// the ring, badList and graphs. It rejects a badList that names an ID off
// the ring or one ID twice.
func newGeneration(epoch int, r *ring.Ring, badList []ring.Point, graphs [2]*groups.Graph) (*Generation, error) {
	n := r.Len()
	gen := &Generation{Epoch: epoch, Ring: r, Graphs: graphs, badList: badList, badRank: make([]bool, n)}
	for _, b := range badList {
		i, ok := r.Index(b)
		if !ok {
			return nil, fmt.Errorf("bad ID %v is not on the ring", b)
		}
		if gen.badRank[i] {
			return nil, fmt.Errorf("bad ID %v is listed twice", b)
		}
		gen.badRank[i] = true
	}
	gen.goodRank = make([]int32, 0, n-len(badList))
	gen.blueRank = make([]int32, 0, n)
	for i, bad := range gen.badRank {
		if !bad {
			gen.goodRank = append(gen.goodRank, int32(i))
		}
		if !graphs[0].GroupAt(i).Red() && (graphs[1] == nil || !graphs[1].GroupAt(i).Red()) {
			gen.blueRank = append(gen.blueRank, int32(i))
		}
	}
	return gen, nil
}

// BadCount returns the number of Byzantine IDs in the generation (the
// adversary's PoW-minted ≈βn share, Lemma 11).
func (gen *Generation) BadCount() int { return len(gen.badList) }

// countingSource wraps the stdlib rand source, counting state advances so
// the system can rewind its placement rng to a recorded mark: a fresh
// source re-seeded with the root seed and advanced the same number of
// steps is in the identical state. Both Int63 and Uint64 advance the
// underlying generator exactly once, so the count alone captures the
// state. This is what makes an aborted epoch build replayable — see
// System.rewind.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// pendingGen is a fully-built next generation awaiting CommitEpoch — the
// off-to-the-side state of the two-phase advance.
type pendingGen struct {
	gen   *Generation
	stats Stats
	// rngMark is the placement-rng advance count recorded before this
	// build's first draw; AbortPending rewinds to it.
	rngMark uint64
}

// System is a running dynamic deployment: the published generation plus
// the writer-private machinery that builds the next one.
type System struct {
	cfg  Config
	rng  *rand.Rand
	rsrc *countingSource

	// gen is the atomically-published serving generation: written only by
	// CommitEpoch (and once at New or Restore), read lock-free by any
	// goroutine through Generation().
	gen atomic.Pointer[Generation]

	// pending holds a generation built by BuildEpochContext and not yet
	// committed (nil otherwise). Owned by the same single-writer discipline
	// as the rest of the construction state.
	pending *pendingGen

	scratch []workerScratch // one entry per construction worker, reused across epochs

	// Rank-indexed construction buffers. The outer index slices are reused
	// across epochs; memberArena is allocated fresh each epoch because the
	// generation's graphs retain views into it (see sizeArenas).
	memberArena []groups.Member
	members     [2][][]groups.Member
	confused    [2][]bool
	departFlag  []bool
}

// New creates a system in its trusted-initialization state (Appendix X):
// the two epoch-0 graphs are built directly with ground-truth memberships.
func New(cfg Config) (*System, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.N < 8 {
		return nil, fmt.Errorf("epoch: N = %d too small", cfg.N)
	}
	s := &System{cfg: cfg}
	s.rsrc = &countingSource{src: rand.NewSource(cfg.Seed).(rand.Source64)}
	s.rng = rand.New(s.rsrc)
	pl := adversary.Place(adversary.Config{N: cfg.N, Beta: cfg.Params.Beta, Strategy: cfg.Strategy}, s.rng)
	r, bad := pl.Ring(), pl.BadSet()
	ov, err := s.buildOverlay(r)
	if err != nil {
		return nil, err
	}
	var gs [2]*groups.Graph
	gs[0] = groups.Build(ov, bad, cfg.Params, hashes.H1)
	if cfg.TwoGraphs {
		gs[1] = groups.Build(ov, bad, cfg.Params, hashes.H2)
	}
	gen, err := newGeneration(0, r, pl.Bad, gs)
	if err != nil {
		return nil, err
	}
	return s.start(gen), nil
}

// start publishes gen as the serving generation and sizes the per-worker
// construction scratch.
func (s *System) start(gen *Generation) *System {
	s.scratch = make([]workerScratch, engine.Workers(s.cfg.Workers))
	s.gen.Store(gen)
	return s
}

// Close does nothing: a System holds no goroutines or other resources
// between builds. It remains only because the bench/ module still calls it.
func (s *System) Close() {}

func (s *System) buildOverlay(r *ring.Ring) (overlay.Graph, error) {
	for _, b := range overlay.Builders() {
		if b.Name == s.cfg.Overlay {
			return b.Build(r, s.cfg.Seed), nil
		}
	}
	return nil, fmt.Errorf("epoch: unknown overlay %q", s.cfg.Overlay)
}

// Epoch returns the current epoch index.
func (s *System) Epoch() int { return s.gen.Load().Epoch }

// Generation returns the atomically-published serving generation. It is
// safe to call from any goroutine at any time — including while RunEpoch
// is mid-construction on another goroutine — and the returned value is
// immutable: holders see a consistent generation until they re-load, no
// matter how many swaps happen underneath.
func (s *System) Generation() *Generation { return s.gen.Load() }

// tallyDual folds one dual-search outcome pair into the worker's tallies
// and reports whether the step was corrupted (all searches failed).
// lastRank is the ring rank of suc(p); both outcomes share one route, so
// it is valid whenever the step was not corrupted. In single-graph mode
// only the first outcome counts.
func (gen *Generation) tallyDual(o1, o2 groups.Outcome, wk *workerScratch) (corrupted bool, lastRank int) {
	if gen.Graphs[1] == nil {
		wk.t.messages += o1.Messages
		wk.t.searches++
		if !o1.OK {
			wk.t.singles++
			wk.t.duals++
			return true, o1.LastRank
		}
		return false, o1.LastRank
	}
	wk.t.messages += o1.Messages + o2.Messages
	wk.t.searches += 2
	if !o1.OK {
		wk.t.singles++
		if !o2.OK {
			wk.t.duals++
			return true, o1.LastRank
		}
	}
	return false, o1.LastRank
}

// dualSearch runs the §III-A dual search for point p from the ring ID of
// rank srcRank — one overlay-route walk classified against both of the
// generation's graphs — updating the worker's tallies. targetRank is the
// rank of suc(p) when already known, else -1.
func (gen *Generation) dualSearch(srcRank, targetRank int, p ring.Point, wk *workerScratch) (corrupted bool, lastRank int) {
	o1, o2 := gen.Graphs[0].SearchOutcomeDualTo(gen.Graphs[1], srcRank, targetRank, p, &wk.sc)
	return gen.tallyDual(o1, o2, wk)
}

// dualFailsSelf is dualSearch for the degenerate verification search a
// member-point target u runs for a point p it owns: the overlay route from
// u to suc(p) = u is the single group G_u, so the dual search reduces to
// red checks on G_u — no route walk, no messages. ui is u's ring rank.
// Outcome and tallies are exactly those of dualSearch(ui, ui, p, wk).
func (gen *Generation) dualFailsSelf(ui int, wk *workerScratch) bool {
	red1 := gen.Graphs[0].GroupAt(ui).Red()
	if gen.Graphs[1] == nil {
		wk.t.searches++
		if red1 {
			wk.t.singles++
			wk.t.duals++
			return true
		}
		return false
	}
	wk.t.searches += 2
	if red1 {
		wk.t.singles++
		if gen.Graphs[1].GroupAt(ui).Red() {
			wk.t.duals++
			return true
		}
	}
	return false
}

// bootRankFrom returns the ring rank of a bootstrap leader drawn from rng:
// a u.a.r. blue group (the paper's assumption that joiners know a good
// bootstrapping group; Appendix IX).
func (gen *Generation) bootRankFrom(rng *engine.Stream) int {
	if len(gen.blueRank) == 0 {
		// Degenerate: no blue groups — fall back to any leader.
		return rng.Intn(gen.Ring.Len())
	}
	return int(gen.blueRank[rng.Intn(len(gen.blueRank))])
}

// badOldID returns a rng-drawn u.a.r. bad ID of the generation (the
// adversary's worst-case substitute when it fully controls a lookup).
func (gen *Generation) badOldID(rng *engine.Stream) (ring.Point, bool) {
	if len(gen.badList) == 0 {
		return 0, false
	}
	return gen.badList[rng.Intn(len(gen.badList))], true
}

// hashFns pairs the two member-location oracles with the graph index.
var hashFns = [2]hashes.Func{hashes.H1, hashes.H2}

// buildID performs the whole §III-A construction for the new ID of rank wi
// — member-point location, request verification and neighbor establishment
// in every new graph — reading only the immutable old generation and
// writing only rank-wi slots, so any worker may run any ID. Its randomness
// comes exclusively from the per-ID stream.
func (s *System) buildID(old *Generation, wk *workerScratch, wi int, w ring.Point, epochSeed int64,
	newBad map[ring.Point]bool, newOv overlay.Graph, size, nGraphs int) {

	rng := engine.NewStream(engine.TrialSeed(epochSeed, "id", wi))
	boot := old.bootRankFrom(&rng)
	n := len(s.members[0])
	if cap(wk.ptBuf) < size {
		wk.ptBuf = make([]ring.Point, size)
	}
	for l := 0; l < nGraphs; l++ {
		// Group-membership requests (§III-A): all d₂·ln ln n member points
		// of G_w are derived in one batch-hash pass and appended into the
		// rank-wi slot of the shared member arena.
		mlist := s.memberArena[(l*n+wi)*size : (l*n+wi)*size : (l*n+wi+1)*size]
		for _, p := range hashFns[l].PointsAt(w, size, wk.ptBuf) {
			fail, ui := old.dualSearch(boot, -1, p, wk)
			if fail {
				// Both location searches failed: the adversary answers.
				if id, ok := old.badOldID(&rng); ok {
					mlist = append(mlist, groups.Member{ID: id, Bad: true})
					wk.t.forcedBad++
				}
				continue
			}
			u, uBad := old.Ring.At(ui), old.badRank[ui]
			if !uBad && s.cfg.VerifyRequests {
				// u verifies the request by its own dual search; if all of
				// u's searches fail, it erroneously rejects. u owns p, so
				// its search routes terminate immediately at G_u.
				if old.dualFailsSelf(ui, wk) {
					wk.t.errReject++
					continue
				}
			}
			mlist = append(mlist, groups.Member{ID: u, Bad: uBad})
		}
		s.members[l][wi] = mlist

		// Neighbor requests (§III-A): locate every element of L_w and have
		// it verify; a failure on either side leaves G_w confused (Lemma 8).
		for _, u := range newOv.Neighbors(w) {
			fail, sucRank := old.dualSearch(boot, -1, u, wk)
			if fail {
				s.confused[l][wi] = true
				continue
			}
			if newBad[u] || !s.cfg.VerifyRequests {
				continue
			}
			// u's verification searches run in the old graphs from u's own
			// bootstrap position (u is a new ID; its searches go through
			// its own bootstrap group while the new graphs are under
			// construction). The location search above already resolved
			// suc(u)'s rank, so the verification route reuses it.
			if vfail, _ := old.dualSearch(old.bootRankFrom(&rng), sucRank, u, wk); vfail {
				wk.t.errReject++
				s.confused[l][wi] = true
			}
		}
	}
}

// RunEpoch advances the system one epoch: the whole population turns over
// (n departures matched by n PoW-minted joins), the new group graphs are
// built through the old ones, and the generations swap.
//
// Construction fans out over Config.Workers workers; see the package
// comment for why results are independent of the worker count.
func (s *System) RunEpoch() Stats {
	st, err := s.RunEpochContext(context.Background())
	if err != nil {
		panic("epoch: " + err.Error()) // background context never cancels
	}
	return st
}

// ctxBatch is the per-ID construction batch size between cancellation
// polls of the epoch build. It only shapes how often ctx is checked —
// per-ID randomness is hash-derived, so batching never changes results.
const ctxBatch = 256

// yieldStride is how many per-ID construction tasks a worker runs between
// cooperative runtime.Gosched calls. A per-ID build at n = 16384 costs
// 31–39 µs single-threaded (BenchmarkRunEpoch/n=16384 on a 2-vCPU x86-64
// box), so a stride of 64 yields every 2–2.5 ms: well inside the
// runtime's ~10 ms async preemption that a reader sharing the processor
// would otherwise wait for, and one scheduler call per stride vanishes in
// the construction cost.
const yieldStride = 64

// RunEpochContext is RunEpoch with cooperative cancellation: ctx is polled
// between per-ID construction batches and between the epoch's phases. On
// cancellation it returns ctx.Err(), per-worker tallies are discarded, the
// generation swap never happens, and the placement rng rewinds to its
// pre-build state — the system keeps serving the old generation, remains
// fully usable, and a retried epoch replays the identical generation the
// aborted build was constructing. That replay property is what keeps the
// shards of a cluster in lockstep through failed coordinated advances.
//
// A generation left pending by BuildEpochContext is committed first — the
// sequence (BuildEpochContext; RunEpochContext) is not meaningful and the
// pending build must not be silently discarded.
func (s *System) RunEpochContext(ctx context.Context) (Stats, error) {
	if s.pending != nil {
		st, _ := s.CommitEpoch()
		return st, nil
	}
	if _, err := s.BuildEpochContext(ctx); err != nil {
		return Stats{}, err
	}
	st, _ := s.CommitEpoch()
	return st, nil
}

// BuildEpochContext is phase one of the two-phase epoch advance: it runs
// the entire §III construction of the next generation off to the side —
// placement, per-ID build, spam, departures, classification — and parks
// the result as the system's pending generation WITHOUT swapping. Readers
// of Generation() keep seeing the current epoch until CommitEpoch flips
// the pointer. Calling it again while a build is pending is idempotent:
// the pending build's Stats are returned and nothing is recomputed.
//
// On cancellation the build aborts exactly like RunEpochContext — tallies
// discarded, rng rewound, nothing pending — so a retry replays the
// identical generation.
func (s *System) BuildEpochContext(ctx context.Context) (Stats, error) {
	if s.pending != nil {
		return s.pending.stats, nil
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	p, err := s.buildGeneration(ctx)
	if err != nil {
		return Stats{}, err
	}
	s.pending = p
	return p.stats, nil
}

// CommitEpoch is phase two of the two-phase advance: it publishes the
// pending generation as the serving one — one atomic pointer store, the
// same swap RunEpoch performs — and reports its Stats. ok is false (and
// nothing changes) when no build is pending. Readers pinned to the old
// Generation keep a consistent view: nothing it references is touched.
func (s *System) CommitEpoch() (st Stats, ok bool) {
	p := s.pending
	if p == nil {
		return Stats{}, false
	}
	s.pending = nil
	s.gen.Store(p.gen)
	return p.stats, true
}

// AbortPending discards a pending build and rewinds the placement rng to
// its pre-build state, so the next build replays the identical generation
// the discarded one held. It reports whether there was a build to discard.
// This is the shard-local half of the cluster's coordinated abort: every
// shard that aborts is byte-identical to one that never built.
func (s *System) AbortPending() bool {
	p := s.pending
	if p == nil {
		return false
	}
	s.pending = nil
	s.rewind(p.rngMark)
	return true
}

// rewind restores the placement rng to the state it had after exactly n
// source advances from the root seed: re-seed, fast-forward, republish.
// O(n) in total draws since New — abort paths only.
func (s *System) rewind(n uint64) {
	fresh := rand.NewSource(s.cfg.Seed).(rand.Source64)
	for i := uint64(0); i < n; i++ {
		fresh.Uint64()
	}
	s.rsrc.src = fresh
	s.rsrc.n = n
	s.rng = rand.New(s.rsrc)
}

// buildGeneration runs the whole construction of the next generation and
// returns it as an uncommitted pendingGen. See RunEpochContext for the
// cancellation contract.
func (s *System) buildGeneration(ctx context.Context) (*pendingGen, error) {
	rngMark := s.rsrc.n
	old := s.gen.Load()
	st := Stats{Epoch: old.Epoch + 1}
	epochSeed := engine.TrialSeed(s.cfg.Seed, "epoch", st.Epoch)
	// New generation of IDs: good participants re-mint; the adversary
	// mints βn u.a.r. IDs and injects per its strategy (Lemma 11 bounds).
	// Under SizeDrift the population swings by a constant factor (§III's
	// Θ(n) remark).
	newN := s.cfg.N
	if s.cfg.SizeDrift > 0 {
		if old.Epoch%2 == 0 {
			newN = int(float64(s.cfg.N) * (1 - s.cfg.SizeDrift))
		} else {
			newN = int(float64(s.cfg.N) * (1 + s.cfg.SizeDrift))
		}
	}
	st.N = newN
	pl := adversary.Place(adversary.Config{
		N: newN, Beta: s.cfg.Params.Beta, Strategy: s.cfg.Strategy,
	}, s.rng)
	newRing := pl.Ring()
	newBad := pl.BadSet()
	newOv, err := s.buildOverlay(newRing)
	if err != nil {
		panic(err) // config was validated in New
	}

	n := newRing.Len()
	size := s.cfg.Params.SizeFor(n)
	nGraphs := 1
	if s.cfg.TwoGraphs {
		nGraphs = 2
	}
	s.sizeArenas(n, size, nGraphs)

	// Phase 1 — per-ID construction, fanned out by engine.ForEach. Each task
	// reads only the immutable old generation and writes only its own
	// rank's arena slots plus its worker's tally. The fan-out proceeds in
	// ctxBatch-sized rank ranges with a ctx poll between batches; the split
	// is invisible to results.
	newPts := newRing.Points()
	build := func(worker, wi int) {
		// Yield every yieldStride IDs: the construction is CPU-bound for
		// tens of milliseconds, and on small GOMAXPROCS a lock-free reader
		// sharing the processor would otherwise wait for the runtime's
		// coarse (~10ms) async preemption. The yield point is
		// schedule-only — results never depend on it.
		if wi%yieldStride == yieldStride-1 {
			runtime.Gosched()
		}
		s.buildID(old, &s.scratch[worker], wi, newPts[wi], epochSeed, newBad, newOv, size, nGraphs)
	}
	for lo := 0; lo < n; lo += ctxBatch {
		if err := ctx.Err(); err != nil {
			return s.abortBuild(rngMark, err)
		}
		hi := min(lo+ctxBatch, n)
		engine.ForEach(s.cfg.Workers, hi-lo, func(worker, i int) { build(worker, lo+i) })
	}
	if err := ctx.Err(); err != nil {
		return s.abortBuild(rngMark, err)
	}

	// Phase 2 — spam attack (Lemma 10 / E12): each bad new ID issues bogus
	// membership requests to random good old IDs; the target's dual
	// verification search catches them unless both searches fail. One
	// substream per spamming ID keeps the phase schedule-independent.
	if s.cfg.SpamFactor > 0 && len(old.goodRank) > 0 {
		engine.ForEach(s.cfg.Workers, len(pl.Bad), func(worker, bi int) {
			if bi%yieldStride == yieldStride-1 {
				runtime.Gosched()
			}
			wk := &s.scratch[worker]
			rng := engine.NewStream(engine.TrialSeed(epochSeed, "spam", bi))
			for k := 0; k < s.cfg.SpamFactor; k++ {
				ui := int(old.goodRank[rng.Intn(len(old.goodRank))])
				if !s.cfg.VerifyRequests {
					wk.t.spamAcc++
					continue
				}
				// A bogus request never hashes to u, so u accepts only if
				// both of its verification searches fail.
				p := ring.Point(rng.Uint64())
				if fail, _ := old.dualSearch(ui, -1, p, wk); fail {
					wk.t.spamAcc++
				}
			}
		})
	}

	if err := ctx.Err(); err != nil {
		return s.abortBuild(rngMark, err)
	}

	// Merge per-worker tallies (integer sums: order-free).
	var tot tally
	for i := range s.scratch {
		tot.add(&s.scratch[i].t)
		s.scratch[i].t = tally{}
	}
	st.ForcedBadMembers = tot.forcedBad
	st.ErroneousRejects = tot.errReject
	st.SpamAccepted = tot.spamAcc
	st.SearchMessages = tot.messages
	st.Searches = tot.searches

	// Assemble the new graphs and classify.
	var newG [2]*groups.Graph
	newG[0] = groups.BuildExplicitRanked(newOv, s.cfg.Params, s.members[0], s.confused[0])
	if s.cfg.TwoGraphs {
		newG[1] = groups.BuildExplicitRanked(newOv, s.cfg.Params, s.members[1], s.confused[1])
	}

	// Phase 3 — mid-epoch departures (§III churn model): a fraction of the
	// serving generation's good IDs goes offline, eroding the groups they
	// serve in. One hash-derived Bernoulli draw per serving ID, flagged in
	// parallel by rank, keeps the draw independent of both loop order and
	// worker count.
	if s.cfg.MidEpochDepartures > 0 {
		oldPts := old.Ring.Points()
		if cap(s.departFlag) < len(oldPts) {
			s.departFlag = make([]bool, len(oldPts))
		}
		s.departFlag = s.departFlag[:len(oldPts)]
		frac := s.cfg.MidEpochDepartures
		engine.ForEach(s.cfg.Workers, len(oldPts), func(_, i int) {
			rng := engine.NewStream(engine.TrialSeed(epochSeed, "depart", i))
			s.departFlag[i] = !old.badRank[i] && rng.Float64() < frac
		})
		departed := map[ring.Point]bool{}
		for i, d := range s.departFlag {
			if d {
				departed[oldPts[i]] = true
			}
		}
		for l := 0; l < nGraphs; l++ {
			rep := newG[l].RemoveMembers(departed)
			st.DepartedMembers += rep.Departed
			st.MajoritiesLost += rep.LostMajority + rep.Undersized
		}
	}

	st.RedFraction[0] = newG[0].RedFraction()
	if s.cfg.TwoGraphs {
		st.RedFraction[1] = newG[1].RedFraction()
	}

	if st.Searches > 0 {
		st.QfSingle = float64(tot.singles) / float64(st.Searches)
		denom := st.Searches
		if s.cfg.TwoGraphs {
			denom = st.Searches / 2
		}
		st.QfDual = float64(tot.duals) / float64(denom)
	}

	// Lemma 10: membership state of the serving (old) generation. A member
	// slot is good exactly when it holds a good old ID (forced slots are
	// bad), so the good slots of the first new graph are the memberships
	// of the old generation's good IDs.
	goodSlots := 0
	for i := 0; i < newG[0].N(); i++ {
		grp := newG[0].GroupAt(i)
		goodSlots += grp.Size() - grp.BadCount()
	}
	if len(old.goodRank) > 0 {
		st.MeanMemberships = float64(goodSlots) / float64(len(old.goodRank))
	}

	// Post-construction robustness of the new generation. Last abort
	// point: past here the generations swap and the epoch must commit.
	if err := ctx.Err(); err != nil {
		return s.abortBuild(rngMark, err)
	}
	probe := newG[0].MeasureRobustness(512, s.rng)
	st.SearchFailRate = probe.SearchFailRate
	if s.cfg.TwoGraphs {
		probe2 := newG[1].MeasureRobustness(512, s.rng)
		st.SearchFailRate = (st.SearchFailRate + probe2.SearchFailRate) / 2
	}

	// The generation is complete; park it for CommitEpoch. Nothing the
	// serving generation references has been touched — the swap is the
	// commit.
	gen, err := newGeneration(st.Epoch, newRing, pl.Bad, newG)
	if err != nil {
		panic(err) // only if two bad-ID draws collide (odds ≈ (βn)²/2⁶⁵)
	}
	return &pendingGen{gen: gen, stats: st, rngMark: rngMark}, nil
}

// abortBuild discards a partial build: per-worker tallies are zeroed so
// the next construction starts clean (the arenas are re-sized per epoch
// anyway, and nothing was swapped), and the placement rng rewinds to its
// pre-build mark so a retried build replays the identical generation —
// the property the cluster's coordinated two-phase advance leans on to
// keep shards byte-identical after a failed round.
func (s *System) abortBuild(mark uint64, err error) (*pendingGen, error) {
	for i := range s.scratch {
		s.scratch[i].t = tally{}
	}
	s.rewind(mark)
	return nil, err
}

// sizeArenas (re)shapes the rank-indexed construction arenas for a
// generation of n groups of `size` solicited members each. The outer index
// slices (members, confused, departFlag) carry only headers/flags and are
// reused across epochs; memberArena is NOT — the graphs built from it
// retain views into it for their whole generation, so each epoch gets a
// fresh slab (one allocation, amortized O(1) per member) and the old slab
// stays alive exactly as long as the graphs that reference it.
func (s *System) sizeArenas(n, size, nGraphs int) {
	s.memberArena = make([]groups.Member, nGraphs*n*size)
	for l := 0; l < nGraphs; l++ {
		if cap(s.members[l]) < n {
			s.members[l] = make([][]groups.Member, n)
		}
		s.members[l] = s.members[l][:n]
		if cap(s.confused[l]) < n {
			s.confused[l] = make([]bool, n)
		}
		s.confused[l] = s.confused[l][:n]
		for i := range s.members[l] {
			s.members[l][i] = nil
			s.confused[l][i] = false
		}
	}
}
