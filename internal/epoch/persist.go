package epoch

import (
	"fmt"

	"repro/internal/groups"
	"repro/internal/ring"
)

// This file is the durability seam of the epoch layer: Persist extracts
// everything a byte-identical restart needs, Restore rebuilds a System from
// it without re-running a single construction search.
//
// The extract is small because the system is deterministic by design. The
// only mutable randomness is the placement rng, and it runs on a
// countingSource — re-seeding from the root seed and fast-forwarding
// RNGCount draws reproduces its exact state (the same mechanism the
// two-phase abort path uses to rewind). Everything else is the serving
// generation itself: the ring, the adversary's ID list in minting order
// (badOldID indexes into it, so order is load-bearing), and the group
// graphs' member lists and classification flags. Group flags must be
// persisted rather than recomputed: mid-epoch departures reclassify groups
// under the §III revised rules (began-bad-stays-bad, half-size floor),
// which classify() alone cannot reproduce from the member lists. The rank
// indexes are not persisted: Restore hands the ring, the adversary's list
// and the graphs to newGeneration, the constructor every generation goes
// through, which derives them and rejects an adversary list naming an ID
// off the ring or one ID twice.

// PersistedGroup is one group's durable state, keyed by its leader's ring
// rank (the leader itself is the ring point at that rank).
type PersistedGroup struct {
	Members  []groups.Member
	Bad      bool
	Confused bool
}

// PersistedState is everything a System needs to resume at an epoch
// boundary: the epoch counter, the placement-rng advance count, the serving
// ring, the adversary's IDs in minting order, and both group graphs by
// rank. It captures committed state only — a pending two-phase build is
// deliberately excluded (a crashed build is replayed identically on demand,
// exactly like an aborted one).
type PersistedState struct {
	Epoch    int
	RNGCount uint64
	Ring     []ring.Point
	BadList  []ring.Point
	// Graphs holds one entry per live group graph (two in the paper's
	// protocol, one in the single-graph ablation), each indexed by ring
	// rank.
	Graphs [][]PersistedGroup
}

// Persist extracts the serving generation as a PersistedState. It must not
// run concurrently with RunEpoch/CommitEpoch (the caller's single-writer
// discipline); the returned slices alias the system's immutable generation
// data and must be treated as read-only.
func (s *System) Persist() PersistedState {
	gen := s.gen.Load()
	st := PersistedState{
		Epoch:    gen.Epoch,
		RNGCount: s.rsrc.n,
		Ring:     gen.Ring.Points(),
		BadList:  gen.badList,
	}
	for _, g := range gen.Graphs {
		if g == nil {
			continue
		}
		pg := make([]PersistedGroup, g.N())
		for i := range pg {
			grp := g.GroupAt(i)
			pg[i] = PersistedGroup{Members: grp.Members, Bad: grp.Bad, Confused: grp.Confused}
		}
		st.Graphs = append(st.Graphs, pg)
	}
	return st
}

// Restore rebuilds a System from a PersistedState under cfg, byte-identical
// to the System that was persisted: reads answer identically and every
// future RunEpoch draws the same placements the uncrashed run would have.
// cfg must carry the same determinism-relevant settings the persisted run
// used (seed, sizes, protocol switches) — Restore validates only structural
// consistency; semantic config matching is the caller's contract (the
// snapshot format stores a config echo for exactly that check).
func Restore(cfg Config, st PersistedState) (*System, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	wantGraphs := 1
	if cfg.TwoGraphs {
		wantGraphs = 2
	}
	if len(st.Graphs) != wantGraphs {
		return nil, fmt.Errorf("epoch: restore: %d graphs persisted, config needs %d", len(st.Graphs), wantGraphs)
	}
	if len(st.Ring) < 8 {
		return nil, fmt.Errorf("epoch: restore: ring of %d points too small", len(st.Ring))
	}
	s := &System{cfg: cfg}
	s.rsrc = &countingSource{}
	s.rewind(st.RNGCount)
	r := ring.New(st.Ring)
	if r.Len() != len(st.Ring) {
		return nil, fmt.Errorf("epoch: restore: ring points not unique (%d -> %d)", len(st.Ring), r.Len())
	}
	ov, err := s.buildOverlay(r)
	if err != nil {
		return nil, err
	}
	var gs [2]*groups.Graph
	for l, pg := range st.Graphs {
		if len(pg) != r.Len() {
			return nil, fmt.Errorf("epoch: restore: graph %d has %d groups for %d ring points", l, len(pg), r.Len())
		}
		members := make([][]groups.Member, len(pg))
		confused := make([]bool, len(pg))
		for i := range pg {
			members[i] = pg[i].Members
			confused[i] = pg[i].Confused
		}
		g := groups.BuildExplicitRanked(ov, cfg.Params, members, confused)
		// classify() recomputed Bad from the member lists; overwrite it with
		// the persisted flag — departures reclassify under rules classify
		// cannot reproduce (see the file comment).
		for i := range pg {
			g.GroupAt(i).Bad = pg[i].Bad
		}
		gs[l] = g
	}
	gen, err := newGeneration(st.Epoch, r, st.BadList, gs)
	if err != nil {
		return nil, fmt.Errorf("epoch: restore: %w", err)
	}
	return s.start(gen), nil
}
