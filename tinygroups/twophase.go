package tinygroups

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/epoch"
)

// This file is the public two-phase epoch advance: the shard-local half of
// a cluster's coordinated flip. AdvanceEpoch remains the one-shot form —
// BuildEpoch + CommitEpoch split the same construction at its natural seam
// so an external coordinator can build every shard's upcoming generation
// first and flip them together only once every build succeeded.
//
// The protocol invariant that keeps a cluster deterministic: a shard that
// builds and then aborts is byte-identical to a shard that never built.
// AbortEpoch rewinds the construction rng to its pre-build state, so a
// retried round replays the identical generation on every shard no matter
// which shards built, aborted, or failed in earlier rounds.

// BuildEpoch is phase one of the two-phase epoch advance: it runs the
// entire §III construction of the upcoming generation off to the side and
// parks the result, WITHOUT flipping the read snapshot — reads keep
// resolving against the current epoch until CommitEpoch. Calling it again
// while a build is pending is idempotent: the pending build's Stats return
// and nothing is recomputed.
//
// ctx is honoured while waiting for the writer lock and polled between
// construction batches; on cancellation the build aborts cleanly (nothing pending, snapshot untouched, rng rewound) and
// the error wraps ctx.Err().
func (s *System) BuildEpoch(ctx context.Context) (Stats, error) {
	if err := s.wmu.lock(ctx); err != nil {
		return Stats{}, err
	}
	defer s.wmu.unlock()
	if s.closed.Load() {
		return Stats{}, ErrClosed
	}
	est, err := s.dyn.BuildEpochContext(ctx)
	if err != nil {
		return Stats{}, fmt.Errorf("tinygroups: epoch %d build aborted: %w", s.dyn.Epoch()+1, err)
	}
	s.pending.Store(true)
	return statsFrom(est), nil
}

// CommitEpoch is phase two: it flips the pending generation in as the
// serving one — an O(1) snapshot swap, exactly the flip AdvanceEpoch
// performs — and returns its construction Stats. It fails with
// ErrNoPending when no BuildEpoch result is parked.
func (s *System) CommitEpoch() (Stats, error) {
	s.wmu.lockWait()
	defer s.wmu.unlock()
	if s.closed.Load() {
		return Stats{}, ErrClosed
	}
	est, ok := s.dyn.CommitEpoch()
	if !ok {
		return Stats{}, ErrNoPending
	}
	return s.publishLocked(est), nil
}

// AbortEpoch discards a pending BuildEpoch result and rewinds the
// construction randomness to its pre-build state, so the next build
// replays the identical generation the discarded one held. It reports
// whether there was a pending build to discard; aborting with nothing
// pending is a no-op, not an error.
func (s *System) AbortEpoch() (aborted bool, err error) {
	s.wmu.lockWait()
	defer s.wmu.unlock()
	if s.closed.Load() {
		return false, ErrClosed
	}
	s.pending.Store(false)
	return s.dyn.AbortPending(), nil
}

// HasPendingEpoch reports whether a built-but-uncommitted generation is
// parked (BuildEpoch succeeded and neither CommitEpoch nor AbortEpoch has
// run). It is lock-free: a probe never waits behind a running build.
func (s *System) HasPendingEpoch() bool { return s.pending.Load() }

// Fingerprint returns a hex-encoded digest of the serving generation:
// epoch index, the full ID ring, and both group graphs (leaders, group
// flags, members with their corruption bits). Two Systems serve
// byte-identical state if and only if their fingerprints match — the
// equality the cluster determinism gate checks across shards and against
// the single-process system. It reads the epoch snapshot lock-free, and
// the digest is computed once per generation: health probes that poll it
// do not re-hash the ring.
func (s *System) Fingerprint() string {
	snap := s.snap.Load()
	snap.fpOnce.Do(func() { snap.fp = fingerprintOf(snap.gen) })
	return snap.fp
}

// fingerprintOf hashes one immutable generation; see Fingerprint.
func fingerprintOf(gen *epoch.Generation) string {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(gen.Epoch))
	h.Write(buf[:])
	r := gen.Ring
	for i := 0; i < r.Len(); i++ {
		binary.BigEndian.PutUint64(buf[:], uint64(r.At(i)))
		h.Write(buf[:])
	}
	for _, g := range gen.Graphs {
		if g == nil {
			continue
		}
		for i := 0; i < g.N(); i++ {
			grp := g.GroupAt(i)
			binary.BigEndian.PutUint64(buf[:], uint64(grp.Leader))
			h.Write(buf[:])
			flags := byte(0)
			if grp.Bad {
				flags |= 1
			}
			if grp.Confused {
				flags |= 2
			}
			h.Write([]byte{flags})
			for _, m := range grp.Members {
				binary.BigEndian.PutUint64(buf[:], uint64(m.ID))
				h.Write(buf[:])
				if m.Bad {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
