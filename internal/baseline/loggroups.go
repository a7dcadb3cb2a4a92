// Package baseline implements the two comparison points the paper measures
// itself against:
//
//   - the classic Θ(log n)-sized group construction (the "enduring
//     requirement" of §I that the paper reduces exponentially), and
//   - the Awerbuch–Scheideler cuckoo rule [8]–[10] for maintaining good
//     majorities under join-leave attack, in the simulation style of Sen &
//     Freedman's Commensal Cuckoo study [47].
package baseline

import (
	"math"

	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/ring"
)

// logGroupSize returns the classic group size c·ln n.
func logGroupSize(n int, c float64) int {
	if n < 3 {
		n = 3
	}
	s := int(math.Round(c * math.Log(float64(n))))
	if s < 4 {
		s = 4
	}
	return s
}

// BuildLogGroups builds a group graph with Θ(log n)-sized groups — the
// prior-work construction all costs in Corollary 1 are compared against.
// c is the size multiplier (prior work uses c·ln n with c ≥ 1; [47]
// reports |G| = 64 needed at n = 8192, i.e. c ≈ 7).
func BuildLogGroups(ov overlay.Graph, badIDs map[ring.Point]bool, params groups.Params, c float64) *groups.Graph {
	return groups.BuildSized(ov, badIDs, params, hashes.H1, logGroupSize(ov.Ring().Len(), c))
}
