// Package tinygroups is the public library surface of the "Tiny Groups
// Tackle Byzantine Adversaries" reproduction (Jaiyeola, Patron, Saia,
// Young, Zhou — IPDPS 2018): an ε-robust decentralized system built from
// proof-of-work-secured groups of size Θ(log log n) instead of the classic
// Θ(log n).
//
// A System exposes the three applications the paper's introduction
// motivates — a robust key→owner Lookup (secure routing through tiny
// groups), a replicated Put/Get store over it, and Compute, which runs
// Byzantine agreement inside the group responsible for a job so each group
// "simulates a reliable processor" — plus AdvanceEpoch, which turns the
// whole population over through the §III two-group-graph construction.
//
// # Usage
//
//	sys, err := tinygroups.New(4096,
//		tinygroups.WithBeta(0.05),
//		tinygroups.WithSeed(1),
//	)
//	if err != nil { ... }
//	defer sys.Close()
//
//	ctx := context.Background()
//	info, err := sys.Put(ctx, "alice", []byte("v"))    // typed errors: errors.Is(err, tinygroups.ErrUnreachable)
//	st, err := sys.AdvanceEpoch(ctx)                   // cancellable mid-construction
//
// Construction is parameterized by functional options (WithBeta,
// WithOverlay, WithWorkers, WithObserver, ...), validated together at New;
// invalid combinations fail with an error wrapping ErrBadConfig.
//
// # Contexts and lifecycle
//
// Every operation takes a context. AdvanceEpoch polls it between per-ID
// construction batches: on cancellation the epoch aborts cleanly (the
// generation swap never happens) and the System keeps serving the old
// generation. Close releases the construction worker pool; operations on
// a closed System fail with ErrClosed, except reads through a Snapshot
// pinned before the close.
//
// # Concurrency
//
// A System is safe for concurrent use, with a one-writer/many-readers
// contract:
//
//   - Reads — Lookup, Get, LookupBatch, Snapshot, Epoch, N, GroupSize —
//     are lock-free. Each call atomically loads the current epoch
//     snapshot (an immutable view of one generation's graphs, ring and
//     rank tables) and resolves entirely against it, so reads scale
//     linearly with reader goroutines and never block behind a write.
//   - Writes — Put, PutBatch, Compute, AdvanceEpoch, BuildEpoch,
//     CommitEpoch, AbortEpoch, Robustness, Close — serialize on an
//     internal writer lock. Concurrent calls are safe; they queue in
//     arrival order. The writes that take a context honour it while they
//     wait: a Put queued behind a long epoch build returns ctx.Err() the
//     moment ctx ends. A write that returns a context error was not
//     applied — nothing stored, nothing logged, no epoch flipped.
//
// A read racing an epoch flip has snapshot semantics: AdvanceEpoch builds
// the upcoming generation entirely off to the side and publishes it by
// swapping one atomic pointer, so every read is answered by exactly one
// generation — whichever the call loaded — never a mix, and no read ever
// stalls behind an in-flight construction. Callers that need several
// reads answered by one consistent generation pin it explicitly with
// System.Snapshot.
//
// # Observability
//
// WithObserver streams telemetry — per-operation search outcomes, epoch
// construction Stats, PoW minting counts — through the Observer interface.
// A nil observer (the default) costs nothing: the hot paths stay zero
// allocations per operation, enforced by AllocsPerRun regression tests.
//
// # Determinism
//
// Two Systems built with the same options execute identical operation
// sequences identically: all randomness derives from WithSeed, and worker
// counts (WithWorkers, batch operations) affect wall-clock only. Reads
// draw their search randomness from a hash-derived stream keyed on
// (seed, epoch, key) — a read's result is a pure function of those three,
// so it is also byte-identical at any reader count, in or out of a batch,
// and under any interleaving with other operations.
//
// # Stability
//
// This package and tinygroups/scenario are the repository's stable
// surface: exported symbols are only added, never renamed or removed
// without a deprecation note, and the checked-in API.txt listing is
// diffed in CI so any surface change is an explicit, reviewed artifact.
// Packages under internal/ carry no such guarantee.
package tinygroups
