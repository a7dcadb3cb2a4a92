package tinygroups

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ba"
	"repro/internal/epoch"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/pow"
	"repro/internal/ring"
	disk "repro/internal/snapshot"
)

// writerLock is the System's writer mutex as a 1-slot channel, so a caller
// waiting behind a long epoch build can abandon the wait when its context
// ends. Blocked senders queue FIFO.
type writerLock chan struct{}

// lock acquires the writer lock, or returns ctx.Err() if ctx ends first —
// in which case the caller holds nothing and must not touch writer state.
func (l writerLock) lock(ctx context.Context) error {
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lockWait acquires the writer lock unconditionally, for the writers whose
// signatures carry no context.
func (l writerLock) lockWait() { l <- struct{}{} }

func (l writerLock) unlock() { <-l }

// Point is a location in the system's circular ID space [0,1), encoded as
// a 64-bit fixed-point value (the paper's hash-range convention).
type Point uint64

// keyHash maps application keys into the ID space (the "globally-known
// hash function" applied to resource names, Appendix VI).
var keyHash = hashes.NewFunc("tinygroups.key")

// KeyPoint returns the ID-space point a key hashes to.
func KeyPoint(key string) Point { return Point(keyHash.PointString(key)) }

// LookupInfo describes one routed lookup.
type LookupInfo struct {
	Owner    Point // suc(h(key)): the ID responsible for the key
	Hops     int   // groups traversed
	Messages int64 // secure-routing message cost (all-to-all per hop)
}

// Stats reports one epoch's construction outcome (the public mirror of
// the epoch layer's statistics; see AdvanceEpoch).
type Stats struct {
	Epoch int
	// N is the population size of the generation built this epoch
	// (differs from the configured n only under WithSizeDrift).
	N int
	// QfSingle / QfDual are the measured failure probabilities of a single
	// old-graph search and of the both-graphs-fail event (≈ q_f and q_f²).
	QfSingle, QfDual float64
	// RedFraction is the red-group fraction of each new graph.
	RedFraction [2]float64
	// SearchFailRate is the post-construction search failure rate.
	SearchFailRate float64
	// ForcedBadMembers counts member slots the adversary captured because
	// both location searches failed.
	ForcedBadMembers int
	// ErroneousRejects counts good IDs that wrongly rejected a valid
	// membership/neighbor request.
	ErroneousRejects int
	// SpamAccepted counts bogus requests that slipped past verification.
	SpamAccepted int
	// MeanMemberships is the mean number of groups a good serving ID
	// belongs to (Lemma 10: O(log log n)).
	MeanMemberships float64
	// DepartedMembers / MajoritiesLost report mid-epoch departure erosion.
	DepartedMembers int
	MajoritiesLost  int
	// SearchMessages / Searches total the construction's secure-routing
	// message cost and search count.
	SearchMessages int64
	Searches       int64
}

func statsFrom(st epoch.Stats) Stats {
	return Stats{
		Epoch:            st.Epoch,
		N:                st.N,
		QfSingle:         st.QfSingle,
		QfDual:           st.QfDual,
		RedFraction:      st.RedFraction,
		SearchFailRate:   st.SearchFailRate,
		ForcedBadMembers: st.ForcedBadMembers,
		ErroneousRejects: st.ErroneousRejects,
		SpamAccepted:     st.SpamAccepted,
		MeanMemberships:  st.MeanMemberships,
		DepartedMembers:  st.DepartedMembers,
		MajoritiesLost:   st.MajoritiesLost,
		SearchMessages:   st.SearchMessages,
		Searches:         st.Searches,
	}
}

// Robustness aggregates the ε-robustness measurements of Theorem 3.
type Robustness struct {
	N              int
	GroupSize      int
	RedFraction    float64 // fraction of red groups (1 − first bullet of Thm 3)
	SearchFailRate float64 // fraction of failed searches (1 − second bullet)
	MeanRouteLen   float64 // groups traversed per successful search
	MeanMessages   float64 // messages per search (secure-routing cost)
	Samples        int
}

// ComputeResult reports one group-simulated computation (BA execution).
type ComputeResult struct {
	Group    Point // leader of the executing group
	Correct  bool  // the group was good and agreement held on the input
	Agreed   bool  // honest members agreed (vacuous in a bad group)
	Value    int
	Messages int64
}

// System is a running ε-robust deployment: a dynamic two-group-graph
// construction plus a replicated store keyed into its ID space. Create
// one with New, release it with Close.
//
// A System is safe for concurrent use. Reads — Lookup, Get, LookupBatch,
// Snapshot, Epoch, N, GroupSize — are lock-free: they resolve against the
// current epoch snapshot (an immutable generation view swapped atomically
// by AdvanceEpoch) and scale with reader goroutines. Writes — Put,
// PutBatch, Compute, AdvanceEpoch, Robustness, Close — serialize on an
// internal writer lock, and the ones that take a context give up waiting
// for it when the context ends; see the package documentation for the
// full contract.
type System struct {
	cfg config
	dyn *epoch.System

	// snap is the atomically-swapped epoch snapshot every read resolves
	// against: written only at construction and by AdvanceEpoch (under
	// wmu), loaded lock-free by any reader.
	snap atomic.Pointer[snapshot]
	// scratch pools the per-call search buffers of the lock-free read
	// path; see scratchPool.
	scratch scratchPool
	// closed gates every operation after Close. Reads load it lock-free.
	closed atomic.Bool

	// wmu serializes the writers. It is never taken on the read path.
	wmu writerLock
	// pending publishes whether a BuildEpoch result is parked, so
	// HasPendingEpoch never waits behind a running build. Written under wmu.
	pending atomic.Bool
	// rng is the writer-side randomness (Robustness sampling); guarded by
	// wmu. Reads never touch it — their randomness is hash-derived per
	// (epoch, key), which is what makes results independent of reader
	// interleaving.
	rng *rand.Rand
	// store replicates values at the group of each key's owner, keyed
	// string → []byte. Values survive churn (they are re-homed when the
	// ring turns over, exactly like resources in a DHT). Writers replace
	// whole value slices under wmu and never mutate one in place, so
	// lock-free readers always observe a complete value.
	store sync.Map

	// retarget adapts the mint difficulty from observed solve times; nil
	// unless WithMintRetarget. Guarded by wmu (AdvanceEpoch is its only
	// caller). mintSolves/mintNanos/mintAttempts are the lock-free
	// telemetry Mint feeds it: solve count, summed solve wall-clock, and
	// summed hash attempts since the last epoch advance.
	retarget     *pow.Retargeter
	mintSolves   atomic.Int64
	mintNanos    atomic.Int64
	mintAttempts atomic.Int64

	// durable is the data-directory handle when WithDataDir is set; nil
	// otherwise. Its op log is guarded by wmu like every other write.
	durable *durableState
}

// New builds a System of n IDs with trusted initialization (Appendix X)
// and the paper's two-group-graph dynamics, configured by opts. Invalid
// configurations fail with an error wrapping ErrBadConfig.
func New(n int, opts ...Option) (*System, error) {
	c := defaults(n)
	for _, opt := range opts {
		opt(&c)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	ecfg, err := c.epochConfig()
	if err != nil {
		return nil, err
	}
	// With a data dir, recovery runs first: the newest valid snapshot (if
	// any, and if its config echo matches) replaces the cold bootstrap.
	var (
		durable *durableState
		loaded  *disk.LoadResult
	)
	if c.dataDir != "" {
		durable, loaded, err = openDurable(&c)
		if err != nil {
			return nil, err
		}
	}
	var dyn *epoch.System
	if loaded != nil {
		dyn, err = restoreSystem(&c, loaded.Snapshot)
		if err != nil {
			return nil, err
		}
	} else {
		dyn, err = epoch.New(ecfg)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	s := &System{
		cfg:     c,
		dyn:     dyn,
		wmu:     make(writerLock, 1),
		rng:     rand.New(rand.NewSource(c.seed + 0x5eed)),
		durable: durable,
	}
	if c.mintTarget > 0 {
		s.retarget = pow.NewRetargeter(c.mintWork, pow.RetargetConfig{TargetSolve: c.mintTarget})
	}
	if loaded != nil {
		if err := s.finishRecovery(loaded); err != nil {
			dyn.Close()
			return nil, err
		}
		return s, nil
	}
	s.snap.Store(newSnapshot(c.seed, dyn.Generation(), c.mintWork))
	if durable != nil {
		// Persist the bootstrap state immediately so a crash before the
		// first epoch flip still restarts from disk.
		s.wmu.lockWait()
		err := s.persistLocked()
		s.wmu.unlock()
		if err != nil {
			dyn.Close()
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	return s, nil
}

// Close releases the system's construction worker pool. It is idempotent;
// every other operation on a closed System fails with ErrClosed, except
// reads through a Snapshot pinned before the close (immutable generation
// data needs no pool).
func (s *System) Close() error {
	s.wmu.lockWait()
	defer s.wmu.unlock()
	if s.closed.CompareAndSwap(false, true) {
		s.dyn.Close()
		if d := s.durable; d != nil && d.oplog != nil {
			d.oplog.Close()
			d.oplog = nil
		}
	}
	return nil
}

// N returns the configured system size.
func (s *System) N() int { return s.cfg.n }

// Epoch returns the current epoch index. It reads the epoch snapshot
// lock-free, so it is safe from any goroutine — including concurrently
// with an in-flight AdvanceEpoch, which it observes only once the swap
// commits.
func (s *System) Epoch() int { return s.snap.Load().gen.Epoch }

// GroupSize returns the tiny-group size Θ(log log n) in force.
func (s *System) GroupSize() int { return s.snap.Load().gen.Graphs[0].GroupSize() }

// getScratch borrows a search-scratch buffer for one lock-free read.
func (s *System) getScratch() *groups.SearchScratch { return s.scratch.get() }

// putScratch returns a borrowed scratch to the pool.
func (s *System) putScratch(sc *groups.SearchScratch) { s.scratch.put(sc) }

// observeSearch forwards one search outcome to the observer, if any. With
// concurrent readers, observer calls happen on the reading goroutines —
// see the Observer documentation for the concurrency contract.
func (s *System) observeSearch(op Op, key string, ok bool, owner Point, hops int, msgs int64) {
	if s.cfg.observer == nil {
		return
	}
	s.cfg.observer.ObserveSearch(SearchEvent{
		Op: op, Key: key, OK: ok, Owner: owner, Hops: hops, Messages: msgs,
	})
}

// lookup routes key to its owner against the current epoch snapshot — the
// zero-allocation, lock-free core of every keyed operation. The search
// source is drawn from a hash-derived per-(epoch, key) stream, so the
// result is a pure function of (seed, epoch, key): byte-identical at any
// reader count and under any interleaving with other operations.
func (s *System) lookup(ctx context.Context, op Op, key string) (LookupInfo, error) {
	if s.closed.Load() {
		return LookupInfo{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return LookupInfo{}, err
	}
	snap := s.snap.Load()
	sc := s.getScratch()
	info, err := snap.lookupAt(key, sc)
	s.putScratch(sc)
	s.observeSearch(op, key, err == nil, info.Owner, info.Hops, info.Messages)
	return info, err
}

// Lookup routes from a deterministically-drawn ID to the owner of key
// through the group graph. It fails with ErrUnreachable when the search
// path traverses a red group (the ε-fraction Theorem 3 concedes). Lookup
// is lock-free and safe to call from any number of goroutines; a call
// racing an epoch flip is answered entirely by one generation — the one
// whose snapshot it loaded — never a mix.
func (s *System) Lookup(ctx context.Context, key string) (LookupInfo, error) {
	return s.lookup(ctx, OpLookup, key)
}

// Put stores a value under key at the owner group (replicated across its
// members). It fails if the owner cannot be reached securely. Put is a
// write: concurrent calls are safe but serialize on the writer lock. If ctx
// ends while Put waits for the lock it returns ctx.Err() and the value is
// not stored.
func (s *System) Put(ctx context.Context, key string, value []byte) (LookupInfo, error) {
	if err := s.wmu.lock(ctx); err != nil {
		return LookupInfo{}, err
	}
	defer s.wmu.unlock()
	info, err := s.lookup(ctx, OpPut, key)
	if err != nil {
		return info, err
	}
	v := make([]byte, len(value))
	copy(v, value)
	// Log before acknowledging: a durable System must be able to replay
	// every put it accepted.
	if err := s.appendOpLocked(key, v); err != nil {
		return info, err
	}
	s.store.Store(key, v)
	return info, nil
}

// Get retrieves a value. It fails with ErrUnreachable if the route is
// insecure, or with ErrNotFound if the key was never stored. Get is
// lock-free and safe from any goroutine; racing a Put of the same key it
// returns either the complete old value or the complete new one.
func (s *System) Get(ctx context.Context, key string) ([]byte, LookupInfo, error) {
	info, err := s.lookup(ctx, OpGet, key)
	if err != nil {
		return nil, info, err
	}
	v, ok := s.store.Load(key)
	if !ok {
		return nil, info, ErrNotFound
	}
	stored := v.([]byte)
	out := make([]byte, len(stored))
	copy(out, stored)
	return out, info, nil
}

// Compute runs the job identified by jobKey on the group responsible for
// it: the members execute phase-king Byzantine agreement on the job's
// input bit. A good group always computes correctly (the paper's
// "reliable processor"); a bad group may not. Compute is an exclusive
// operation: concurrent calls are safe but serialize on the writer lock,
// and a call whose ctx ends while it waits returns ctx.Err().
func (s *System) Compute(ctx context.Context, jobKey string, input int) (ComputeResult, error) {
	if err := s.wmu.lock(ctx); err != nil {
		return ComputeResult{}, err
	}
	defer s.wmu.unlock()
	info, err := s.lookup(ctx, OpCompute, jobKey)
	if err != nil {
		return ComputeResult{}, err
	}
	g := s.snap.Load().gen.Graphs[0]
	grp := g.Group(ring.Point(info.Owner))
	if grp == nil {
		return ComputeResult{}, fmt.Errorf("tinygroups: owner %v leads no group", info.Owner)
	}
	n := grp.Size()
	tFaults := (n - 1) / 4
	byz := map[int]bool{}
	for i, m := range grp.Members {
		if m.Bad {
			byz[i] = true
		}
	}
	prefs := make([]int, n)
	for i := range prefs {
		prefs[i] = input
	}
	res := ba.Run(n, tFaults, prefs, byz, "equivocate")
	out := ComputeResult{
		Group:    info.Owner,
		Agreed:   res.Agreed,
		Value:    res.Value,
		Messages: res.Messages + info.Messages,
	}
	// Correct = the group is good (bad ≤ t) and honest members agreed on
	// the submitted input.
	out.Correct = !grp.Red() && len(byz) <= tFaults && res.Agreed && res.Value == input
	return out, nil
}

// AdvanceEpoch turns the population over through the §III two-graph
// construction and returns the epoch's construction statistics. Stored
// values persist (they re-home to the new owners).
//
// The upcoming generation is built entirely off to the side — reads keep
// resolving against the current snapshot, lock-free, for the whole
// construction — and the snapshot pointer flips in O(1) once the swap
// commits. Concurrent AdvanceEpoch calls are safe but serialize on the
// writer lock.
//
// ctx is honoured while waiting for the writer lock and polled between
// per-ID construction batches: on cancellation the epoch aborts cleanly —
// the returned error wraps ctx.Err(), the snapshot never flips, and the
// System keeps serving the old generation.
func (s *System) AdvanceEpoch(ctx context.Context) (Stats, error) {
	if err := s.wmu.lock(ctx); err != nil {
		return Stats{}, err
	}
	defer s.wmu.unlock()
	if s.closed.Load() {
		return Stats{}, ErrClosed
	}
	est, err := s.dyn.RunEpochContext(ctx)
	if err != nil {
		return Stats{}, fmt.Errorf("tinygroups: epoch %d aborted: %w", s.dyn.Epoch()+1, err)
	}
	return s.publishLocked(est), nil
}

// publishLocked flips the read snapshot to the generation the epoch layer
// just committed and fires the epoch observers. It owns the mint-difficulty
// retarget: the closing epoch's observed solve times feed the retargeter
// before the epoch string rotates, and the telemetry counters reset either
// way so a later enablement never sees stale history. Callers hold wmu.
func (s *System) publishLocked(est epoch.Stats) Stats {
	work := s.snap.Load().mint.work
	solves, nanos := s.mintSolves.Swap(0), s.mintNanos.Swap(0)
	s.mintAttempts.Store(0)
	if s.retarget != nil {
		if solves > 0 {
			work = s.retarget.Observe(time.Duration(nanos / solves))
		} else {
			work = s.retarget.Work()
		}
	}
	s.snap.Store(newSnapshot(s.cfg.seed, s.dyn.Generation(), work))
	s.pending.Store(false)
	s.persistBoundaryLocked()
	st := statsFrom(est)
	if obs := s.cfg.observer; obs != nil {
		obs.ObserveMint(MintEvent{Epoch: st.Epoch, Minted: st.N, Bad: s.dyn.BadCount()})
		obs.ObserveEpoch(EpochEvent{Stats: st})
	}
	return st
}

// Robustness measures Theorem 3's two bullets on the current graphs over
// the given number of sampled searches. It consumes the system's writer
// rng, so it counts as a write: concurrent calls are safe but serialize
// on the writer lock.
func (s *System) Robustness(samples int) (Robustness, error) {
	s.wmu.lockWait()
	defer s.wmu.unlock()
	if s.closed.Load() {
		return Robustness{}, ErrClosed
	}
	rob := s.snap.Load().gen.Graphs[0].MeasureRobustness(samples, s.rng)
	return Robustness{
		N:              rob.N,
		GroupSize:      rob.GroupSize,
		RedFraction:    rob.RedFraction,
		SearchFailRate: rob.SearchFailRate,
		MeanRouteLen:   rob.MeanRouteLen,
		MeanMessages:   rob.MeanMessages,
		Samples:        rob.Samples,
	}, nil
}
