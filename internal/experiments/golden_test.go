package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment tables")

// TestGoldenTables pins the seed-1 quick-mode table of every registered
// experiment, e1–e21, byte-for-byte against checked-in goldens. This is the
// guard rail under the hot-path and API work: hashing, ring lookups, group
// construction, the sim runtime and the streaming-emission layer may change
// as much as they like, but they may not change a single output byte. e4
// and e5 pin the *dynamic* (epoch-chained) tables, which have shifted
// silently under past refactors; e6 and e7 pin the identity layer (PoW
// minting and the string lottery) the adversarial workloads press on; e8
// pins the group-size knee and e9 the input-graph properties the
// construction rests on; e10–e14 pin the comparative baselines (cuckoo
// rule, pre-computation attack, spam state caps, in-group BA, secure
// routing); e15–e20 pin the extensions (mid-epoch departures,
// bootstrapping, overlay ablation, quarantine, adaptive PoW, size drift);
// e21 pins the attack-suite outcome counts end to end through the serving
// state machine. It reads the same memoised run as
// TestAllExperimentsRunQuick, so each scenario runs once. Regenerate deliberately with
// `go test ./internal/experiments -run Golden -update`
// and review the diff like any other result change.
func TestGoldenTables(t *testing.T) {
	for _, e := range Default().List() {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			res := quickRun(e)
			if res.Table == nil {
				t.Fatal("experiment produced no table")
			}
			got := res.Table.String()
			path := filepath.Join("testdata", id+"_seed1_quick.golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden: %v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("%s table deviates from golden %s.\n--- golden\n%s\n--- got\n%s\nIf the change is intentional, regenerate with -update and explain it in the PR.",
					id, path, want, got)
			}
		})
	}
}
