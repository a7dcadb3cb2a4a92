package experiments

import "testing"

// TestParallelDeterminism is the engine's core contract: every experiment
// produces a byte-identical table at -parallel 1 and -parallel 8 under the
// same root seed, because trial seeds are hash-derived and results are
// reduced in trial order.
func TestParallelDeterminism(t *testing.T) {
	for _, e := range Default().List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			seq := e.Run(Options{Quick: true, Seed: 5, Parallel: 1})
			par := e.Run(Options{Quick: true, Seed: 5, Parallel: 8})
			if got, want := par.Table.String(), seq.Table.String(); got != want {
				t.Errorf("parallel=8 table differs from parallel=1:\n--- parallel=1\n%s\n--- parallel=8\n%s", want, got)
			}
		})
	}
}

// TestTrialsDeterminism repeats the contract with per-cell repetitions on:
// averaged cells must also be schedule-independent.
func TestTrialsDeterminism(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e8", "e13"} {
		e := mustLookup(id)
		seq := e.Run(Options{Quick: true, Seed: 9, Parallel: 1, Trials: 3})
		par := e.Run(Options{Quick: true, Seed: 9, Parallel: 8, Trials: 3})
		if seq.Table.String() != par.Table.String() {
			t.Errorf("%s: trials=3 table differs between parallel=1 and parallel=8", id)
		}
	}
}

// TestSeedChangesOutput guards against a degenerate TrialSeed (e.g. one
// ignoring the root seed): different seeds must produce different sampled
// tables somewhere.
func TestSeedChangesOutput(t *testing.T) {
	a := mustLookup("e1").Run(Options{Quick: true, Seed: 1})
	b := mustLookup("e1").Run(Options{Quick: true, Seed: 2})
	if a.Table.String() == b.Table.String() {
		t.Error("e1 tables identical under different root seeds")
	}
}
