// Package workload generates the deterministic adversarial traffic that
// experiment e21 drives in process and cmd/chaos drives over HTTP, and
// runs it closed-loop, counting outcomes.
//
// Workloads are pure functions of (seed, op index): every operation's
// kind, key and value derive from engine.TrialSeed(seed, scope, i), the
// same hash-derived substream convention the experiment engine and the
// epoch pipeline use. The op stream is therefore identical regardless of
// client concurrency or scheduling — two runs with the same seed send
// exactly the same operations, no matter how the closed-loop workers
// interleave.
package workload

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/tinygroups"
)

// Kind is the operation class of one generated Op.
type Kind uint8

// The operation classes a workload can emit, mapping 1:1 onto the daemon's
// endpoints (lookup, put, epoch advance, mint).
const (
	KindLookup Kind = iota
	KindPut
	KindAdvance
	KindMint
)

// String returns the op-kind name.
func (k Kind) String() string {
	switch k {
	case KindLookup:
		return "lookup"
	case KindPut:
		return "put"
	case KindAdvance:
		return "advance"
	case KindMint:
		return "mint"
	}
	return "unknown"
}

// Op is one generated operation. Advance ops carry no key; put ops carry a
// generated value; mint ops carry the miner identity in Key.
type Op struct {
	Kind  Kind
	Key   string
	Value []byte
}

// Generator deterministically produces the i-th operation of a workload.
// Implementations must derive all randomness from (seed, i) — never from
// shared mutable state — so the op stream is independent of which client
// executes which index.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Op returns operation i of the stream identified by seed. It must be
	// safe for concurrent use.
	Op(seed int64, i int) Op
}

// valueBytes is the size of generated put values.
const valueBytes = 16

// keyOf formats key index k of a keyspace; zero-padding keeps keys
// fixed-width so value sizes do not vary with the draw.
func keyOf(k int) string { return fmt.Sprintf("k%08d", k) }

// stream derives the private randomness stream of op i of the named
// workload — one TrialSeed hash, exactly the engine's per-trial contract.
func stream(scope string, seed int64, i int) engine.Stream {
	return engine.NewStream(engine.TrialSeed(seed, scope, i))
}

// clampKeys floors a keyspace size at 1 so a zero or negative size
// degenerates to a single hot key instead of panicking inside the
// closed-loop workers (Stream.Intn rejects non-positive bounds).
func clampKeys(keys int) int {
	if keys < 1 {
		return 1
	}
	return keys
}

// genValue fills a fresh value from the op's private stream.
func genValue(rng *engine.Stream) []byte {
	v := make([]byte, valueBytes)
	for i := range v {
		v[i] = byte(rng.Uint64())
	}
	return v
}

// uniform is the Uniform generator.
type uniform struct {
	keys  int
	scope string
}

// Uniform returns a workload of lookups with keys drawn uniformly from a
// keyspace of the given size — the unskewed read baseline.
func Uniform(keys int) Generator {
	return &uniform{keys: clampKeys(keys), scope: "loadgen/uniform"}
}

// Name implements Generator.
func (g *uniform) Name() string { return "uniform" }

// Op implements Generator.
func (g *uniform) Op(seed int64, i int) Op {
	rng := stream(g.scope, seed, i)
	return Op{Kind: KindLookup, Key: keyOf(rng.Intn(g.keys))}
}

// Outcome is the semantic result of one executed operation. Unreachable
// and NotFound are expected system behaviors (the conceded ε of Theorem 3,
// and reads of never-written keys), not failures — Run tallies them
// separately from errors.
type Outcome uint8

// The semantic outcomes a Do function reports.
const (
	OK Outcome = iota
	Unreachable
	NotFound
)

// Do executes one operation against a system under test and returns its
// semantic outcome; the error is non-nil only for transport or system
// failures. It must be safe for concurrent use.
type Do func(ctx context.Context, op Op) (Outcome, error)

// Result counts the outcomes of one closed-loop run.
type Result struct {
	Ops, OK, Unreachable, NotFound, Errors int
	// SuccessRate is (OK+NotFound)/Ops: a miss on a never-written key is
	// the right answer; Unreachable stays a failure — it is the ε the
	// attack suite measures.
	SuccessRate float64
}

// Run drives ops operations of gen through do with workers closed-loop
// clients. Workers claim op indices off a shared counter: which worker
// runs which op is scheduling-dependent, but the op content is a pure
// function of (seed, index), so the executed operation set is identical
// across runs and concurrency levels. Run stops early (with ctx.Err())
// when ctx cancels; the partial counts are still returned.
func Run(ctx context.Context, do Do, gen Generator, seed int64, ops, workers int) (Result, error) {
	var (
		res Result
		mu  sync.Mutex
	)
	engine.ForEach(max(workers, 1), ops, func(_, i int) {
		if ctx.Err() != nil {
			return
		}
		out, err := do(ctx, gen.Op(seed, i))
		mu.Lock()
		res.Ops++
		switch {
		case err != nil:
			res.Errors++
		case out == OK:
			res.OK++
		case out == Unreachable:
			res.Unreachable++
		case out == NotFound:
			res.NotFound++
		}
		mu.Unlock()
	})
	if res.Ops > 0 {
		res.SuccessRate = float64(res.OK+res.NotFound) / float64(res.Ops)
	}
	return res, ctx.Err()
}

// SystemDo returns the Do that executes ops against an in-process System
// through the library API. The caller keeps ownership (and Close).
func SystemDo(sys *tinygroups.System) Do {
	return func(ctx context.Context, op Op) (Outcome, error) {
		var err error
		switch op.Kind {
		case KindLookup:
			_, err = sys.Lookup(ctx, op.Key)
		case KindPut:
			_, err = sys.Put(ctx, op.Key, op.Value)
		case KindAdvance:
			_, err = sys.AdvanceEpoch(ctx)
		case KindMint:
			_, err = sys.Mint(ctx, op.Key)
		default:
			return OK, fmt.Errorf("workload: unknown op kind %d", op.Kind)
		}
		switch {
		case err == nil:
			return OK, nil
		case errors.Is(err, tinygroups.ErrUnreachable):
			return Unreachable, nil
		case errors.Is(err, tinygroups.ErrNotFound):
			return NotFound, nil
		default:
			return OK, err
		}
	}
}
