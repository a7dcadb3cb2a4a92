package tinygroups

import (
	"context"
	"sync"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/groups"
	"repro/internal/pow"
)

// snapshot is the immutable read state of one epoch generation: everything
// a routed read needs, resolved once at the swap and never mutated. The
// System holds the current snapshot in an atomic pointer; readers load it
// once per operation and work against a consistent generation no matter
// how many epoch flips happen underneath them.
type snapshot struct {
	gen *epoch.Generation
	// readSeed is the epoch's lookup-randomness root: every read of key k
	// in this generation draws its search source from the hash-derived
	// stream TrialSeed(readSeed, "lookup", h(k)) — a pure function of
	// (system seed, epoch, key), so results are byte-identical regardless
	// of reader count, batching, or interleaving with other operations.
	readSeed int64
	// mint is the epoch's PoW surface: the puzzle parameters and epoch
	// string every Mint and VerifyMints of this generation resolve against.
	// Like the rest of the snapshot it is immutable — an epoch flip swaps
	// in a fresh one, rotating the string, which is exactly how the paper
	// expires minted IDs.
	mint mintState
	// fp memoises System.Fingerprint for this generation; the snapshot is
	// immutable, so the digest is computed at most once.
	fpOnce sync.Once
	fp     string
}

// mintState fixes one epoch's puzzle: solve against r at difficulty p.Tau.
type mintState struct {
	p pow.Params
	r []byte
	// seed roots the per-(miner, index) solver streams of this epoch.
	seed int64
}

// newSnapshot captures the epoch layer's current generation as the
// system's read state, deriving the epoch's read-randomness root and mint
// puzzle from the configured seed and mint difficulty.
func (s *System) newSnapshot() *snapshot {
	gen, seed := s.dyn.Generation(), s.cfg.seed
	p := pow.Params{Tau: pow.TauForWork(s.cfg.mintWork), StringLen: 32}
	return &snapshot{
		gen:      gen,
		readSeed: engine.TrialSeed(seed, "tinygroups/read-epoch", gen.Epoch),
		mint: mintState{
			p:    p,
			r:    pow.EpochString(seed, gen.Epoch, p.StringLen),
			seed: engine.TrialSeed(seed, "tinygroups/mint-epoch", gen.Epoch),
		},
	}
}

// lookupAt routes from a deterministically-drawn source ID to the owner of
// key through the snapshot's group graph — the lock-free core of every
// keyed read. sc must be private to the caller (pooled via scratchPool).
func (sn *snapshot) lookupAt(key string, sc *groups.SearchScratch) (LookupInfo, error) {
	g := sn.gen.Graphs[0]
	r := g.Overlay().Ring()
	p := keyHash.PointString(key)
	rng := engine.NewStream(engine.TrialSeed(sn.readSeed, "lookup", int(p)))
	res, _ := g.SearchOutcomeDualTo(nil, rng.Intn(r.Len()), -1, p, sc)
	info := LookupInfo{Hops: res.Hops, Messages: res.Messages}
	if !res.OK {
		return info, ErrUnreachable
	}
	info.Owner = Point(r.At(res.LastRank))
	return info, nil
}

// Snapshot is a pinned, immutable read handle onto one epoch generation.
// Obtain one with System.Snapshot; it stays valid — and keeps answering
// against the same generation — across any number of AdvanceEpoch flips on
// the owning System, and even after the System is closed (the generation
// data it references is immutable and self-contained). A Snapshot is safe
// for concurrent use by any number of goroutines.
type Snapshot struct {
	snap *snapshot
	sys  *System
}

// Snapshot pins the current epoch generation as an immutable read handle.
// The returned Snapshot observes none of the System's subsequent epoch
// flips: it is the read-side anchor for callers that need several lookups
// answered by one consistent generation.
func (s *System) Snapshot() *Snapshot {
	return &Snapshot{snap: s.snap.Load(), sys: s}
}

// Epoch returns the epoch index of the pinned generation.
func (sn *Snapshot) Epoch() int { return sn.snap.gen.Epoch }

// N returns the population size of the pinned generation.
func (sn *Snapshot) N() int { return sn.snap.gen.Ring.Len() }

// Lookup routes key to its owner through the pinned generation's group
// graph, with the exact semantics of System.Lookup — except that the
// answer always comes from this snapshot's epoch, never a later one. It
// never fails with ErrClosed: the pinned generation outlives Close.
func (sn *Snapshot) Lookup(ctx context.Context, key string) (LookupInfo, error) {
	if err := ctx.Err(); err != nil {
		return LookupInfo{}, err
	}
	sc := sn.sys.getScratch()
	info, err := sn.snap.lookupAt(key, sc)
	sn.sys.putScratch(sc)
	sn.sys.observeSearch(OpLookup, key, err == nil, info.Owner, info.Hops, info.Messages)
	return info, err
}

// scratchPool pools *groups.SearchScratch route buffers for the lock-free
// read path: each read borrows one for the duration of a single search, so
// steady-state lookups stay allocation-free at any reader count.
type scratchPool struct{ p sync.Pool }

func (sp *scratchPool) get() *groups.SearchScratch {
	if sc, ok := sp.p.Get().(*groups.SearchScratch); ok {
		return sc
	}
	return &groups.SearchScratch{}
}

func (sp *scratchPool) put(sc *groups.SearchScratch) { sp.p.Put(sc) }
