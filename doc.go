// Package repro reproduces "Tiny Groups Tackle Byzantine Adversaries"
// (Jaiyeola, Patron, Saia, Young, Zhou — IPDPS 2018, arXiv:1705.10387):
// attack-resistant distributed systems built from groups of size
// Θ(log log n) instead of the classic Θ(log n), secured by proof-of-work.
//
// The public surface is the tinygroups package (the assembled ε-robust
// system: functional options, context-aware operations, typed errors,
// observer hooks, batch operations) and tinygroups/scenario (the
// streaming runner over every evaluation table); their exported API is
// pinned in API.txt and guarded in CI. The substrates live in
// internal/{ring,hashes,overlay,groups,adversary,epoch,pow,sim,ba,
// baseline}; internal/experiments implements the e1..e21 experiments on
// the parallel deterministic runner in internal/engine; bench_test.go in
// this directory holds one profiling benchmark per hot substrate.
package repro
