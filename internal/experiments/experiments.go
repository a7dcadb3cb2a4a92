// Package experiments regenerates every evaluation artifact of the
// reproduction, e1..e21: one table (or series) per analytic claim of the
// paper. Each experiment is a pure function of its Options, so CLI runs
// and benchmarks are reproducible bit-for-bit given a seed.
//
// Experiments are *streaming*: the canonical form is a StreamFunc that
// emits its header, rows and notes into an Emitter as they are produced —
// epoch-chained series (e4, e5) surface each epoch's row the moment it is
// measured, and a cancelled context aborts the remaining work between
// rows. Experiment.Run is the buffering adapter for callers that want the
// whole table at once (goldens, benchmarks, determinism checks).
//
// Default returns the Registry of every experiment; it is the one index
// the CLI, the benchmark and tinygroups/scenario (type aliases over this
// package) all run through.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks sweeps for use in tests and benchmarks.
	Quick bool
	// Seed drives all randomness: every trial's private seed is derived
	// from it by hashing (engine.TrialSeed).
	Seed int64
	// Parallel caps how many engine trials run concurrently; 0 means
	// GOMAXPROCS. It affects wall-clock only — tables are bit-identical at
	// every setting.
	Parallel int
	// Trials multiplies the independent repetitions behind each sampled
	// table cell (≤1 means a single repetition). It applies to the
	// rate-estimating experiments e1, e2, e8 (averaged cells) and e13
	// (more BA runs per cell); the remaining experiments report
	// single-construction measurements and ignore it.
	Trials int
}

// cfg returns the engine configuration for this run.
func (o Options) cfg() engine.Config {
	return engine.Config{Parallel: o.Parallel, RootSeed: o.Seed}
}

// reps returns the effective per-cell repetition count.
func (o Options) reps() int {
	if o.Trials > 1 {
		return o.Trials
	}
	return 1
}

// meanCells fans nCells×reps independent measurements over the engine and
// averages each cell's dims-dimensional vector across its repetitions.
// Trial (cell, rep) pairs are flattened so repetitions of different cells
// run concurrently; the returned slice is indexed by cell.
func meanCells(o Options, scope string, nCells, dims int, measure func(cell, rep int, rng *rand.Rand) []float64) [][]float64 {
	reps := o.reps()
	flat := engine.Map(o.cfg(), scope, nCells*reps, func(i int, rng *rand.Rand) []float64 {
		return measure(i/reps, i%reps, rng)
	})
	out := make([][]float64, nCells)
	for c := range out {
		mean := make([]float64, dims)
		for r := 0; r < reps; r++ {
			v := flat[c*reps+r]
			for d := 0; d < dims && d < len(v); d++ {
				mean[d] += v[d]
			}
		}
		for d := range mean {
			mean[d] /= float64(reps)
		}
		out[c] = mean
	}
	return out
}

// Emitter receives one experiment's output incrementally: one Header call,
// then Rows in table order, then interpretation Notes. Implementations
// must not retain the variadic slices past the call.
type Emitter interface {
	Header(cols ...string)
	Row(cells ...string)
	Note(text string)
}

// collector is the buffering Emitter behind Experiment.Run: it gathers the
// stream into a metrics.Table plus notes.
type collector struct {
	Table metrics.Table
	Notes []string
}

// Header sets the table header (copied; emitters may reuse the slice).
func (c *collector) Header(cols ...string) { c.Table.Header = append([]string(nil), cols...) }

// Row appends one table row (copied; emitters may reuse the slice).
func (c *collector) Row(cells ...string) { c.Table.Append(append([]string(nil), cells...)...) }

// Note records one interpretation note.
func (c *collector) Note(text string) { c.Notes = append(c.Notes, text) }

// StreamFunc runs one experiment, emitting output as it is produced. It
// returns a non-nil error only when ctx is cancelled (the experiments
// themselves are infallible given validated Options); chained experiments
// poll ctx between rows, batch experiments before their trial fan-out.
type StreamFunc func(ctx context.Context, o Options, em Emitter) error

// Result is one regenerated table plus interpretation notes.
type Result struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
}

// Experiment is a named, runnable experiment. Stream is the canonical
// streaming form; Run is the buffered adapter.
type Experiment struct {
	ID     string
	Title  string
	Stream StreamFunc
}

// Run executes the experiment to completion and returns the buffered
// Result — the batch form the golden, determinism and benchmark harnesses
// compare.
func (e Experiment) Run(o Options) Result {
	var c collector
	if err := e.Stream(context.Background(), o, &c); err != nil {
		panic("experiments: " + e.ID + ": " + err.Error()) // background context never cancels
	}
	return Result{ID: e.ID, Title: e.Title, Table: &c.Table, Notes: c.Notes}
}

// errUnknownExperiment is returned by Run and Render for IDs never
// registered.
var errUnknownExperiment = errors.New("experiments: unknown experiment ID")

// Registry is a map-backed experiment index preserving registration order.
// The zero value is an empty, usable registry.
type Registry struct {
	m     map[string]Experiment
	order []string
}

// Register adds an experiment. Empty IDs, nil Stream functions and
// duplicate IDs are rejected — a duplicate registration is always a bug,
// not a request to shadow.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" || e.Stream == nil {
		return fmt.Errorf("experiments: Register needs an ID and a Stream func (got ID %q)", e.ID)
	}
	if _, dup := r.m[e.ID]; dup {
		return fmt.Errorf("experiments: duplicate experiment ID %q", e.ID)
	}
	if r.m == nil {
		r.m = map[string]Experiment{}
	}
	r.m[e.ID] = e
	r.order = append(r.order, e.ID)
	return nil
}

// List returns every experiment in registration order.
func (r *Registry) List() []Experiment {
	out := make([]Experiment, len(r.order))
	for i, id := range r.order {
		out[i] = r.m[id]
	}
	return out
}

// Lookup finds an experiment by ID in O(1).
func (r *Registry) Lookup(id string) (Experiment, bool) {
	e, ok := r.m[id]
	return e, ok
}

// Run streams the experiment's output into em. It fails with
// errUnknownExperiment for unregistered IDs and with ctx.Err() when the
// context cancels mid-stream.
func (r *Registry) Run(ctx context.Context, id string, o Options, em Emitter) error {
	e, ok := r.m[id]
	if !ok {
		return fmt.Errorf("%w: %q", errUnknownExperiment, id)
	}
	return e.Stream(ctx, o, em)
}

// Render runs the experiment to completion and writes the column-aligned
// table followed by its notes to w — the buffered convenience over Run.
func (r *Registry) Render(ctx context.Context, id string, o Options, w io.Writer) error {
	var c collector
	if err := r.Run(ctx, id, o, &c); err != nil {
		return err
	}
	if _, err := io.WriteString(w, c.Table.String()); err != nil {
		return err
	}
	for _, n := range c.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Default returns a registry holding every experiment of the paper
// reproduction, e1..e21 in that order.
func Default() *Registry {
	r := &Registry{}
	for _, e := range []Experiment{
		{"e1", "Static search success (Lemma 4 / Thm 3)", e1StaticSearch},
		{"e2", "Bad-group probability vs group size (S2/Lemma 9 shape)", e2BadGroups},
		{"e3", "Cost table: tiny vs Θ(log n) groups (Corollary 1)", e3Costs},
		{"e4", "Dynamic ε-robustness across epochs (Theorem 3)", e4Dynamic},
		{"e5", "Two-graph vs single-graph ablation (§III intuition)", e5Ablation},
		{"e6", "PoW minting bound and uniformity (Lemma 11)", e6PoW},
		{"e7", "Global random-string lottery (Lemma 12)", e7Lottery},
		{"e8", "Group-size knee: o(log log n) fails (§I-D)", e8Knee},
		{"e9", "Input-graph properties P1–P4 (+ Lemma 5)", e9InputGraphs},
		{"e10", "Cuckoo-rule baseline vs tiny groups ([47] anchor)", e10Cuckoo},
		{"e11", "Pre-computation attack vs string rotation (§IV-B)", e11Precompute},
		{"e12", "Verification caps state under spam (Lemma 10)", e12State},
		{"e13", "Byzantine agreement inside groups (§I building block)", e13BA},
		{"e14", "Secure routing protocol: majority filtering (§I mechanism)", e14SecureRouting},
		{"e15", "Mid-epoch departures vs the ε'/2 bound (§III churn model)", e15Departures},
		{"e16", "Bootstrapping sets (Appendix IX)", e16Bootstrap},
		{"e17", "Overlay ablation: route length vs degree (design choice)", e17OverlayAblation},
		{"e18", "Quarantine of misbehaving members (footnote 2 extension)", e18Quarantine},
		{"e19", "Adaptive PoW: work only when attacked (conclusion / [22])", e19AdaptivePoW},
		{"e20", "System size Θ(n) oscillation (§III remark)", e20SizeDrift},
		{"e21", "Attack suite vs matched adversary placement (§IV pressure)", e21AttackSuite},
	} {
		if err := r.Register(e); err != nil {
			panic(err) // the built-in list is statically duplicate-free
		}
	}
	return r
}

func f3(x float64) string   { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string   { return fmt.Sprintf("%.4f", x) }
func f1(x float64) string   { return fmt.Sprintf("%.1f", x) }
func itoa(x int) string     { return fmt.Sprintf("%d", x) }
func boolStr(b bool) string { return strconv.FormatBool(b) }
func i64toa(x int64) string { return fmt.Sprintf("%d", x) }
