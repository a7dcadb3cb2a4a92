package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Config tunes a closed-loop run. The zero value is completed by defaults:
// 4 workers, 1000 ops, seed 1.
type Config struct {
	// Concurrency is the number of closed-loop clients: each repeatedly
	// claims the next op index off a shared counter, executes it, and
	// records the latency — so offered load tracks service capacity
	// instead of overrunning it.
	Concurrency int
	// Ops is the total operation count of the run.
	Ops int
	// Seed drives the workload's op stream; two runs with equal seeds send
	// identical operations.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one workload's measured service level, the unit of
// BENCH_service.json. Latencies are milliseconds.
type Result struct {
	Workload    string  `json:"workload"`
	Ops         int     `json:"ops"`
	OK          int     `json:"ok"`
	Unreachable int     `json:"unreachable"`
	NotFound    int     `json:"not_found"`
	Errors      int     `json:"errors"`
	Seconds     float64 `json:"seconds"`
	Throughput  float64 `json:"throughput_ops_per_s"`
	P50Millis   float64 `json:"p50_ms"`
	P99Millis   float64 `json:"p99_ms"`
	MeanMillis  float64 `json:"mean_ms"`
	MaxMillis   float64 `json:"max_ms"`
	// ReadOps / ReadP50Millis / ReadP99Millis cover only the lookup and
	// get operations of the workload. For workloads that mix reads with
	// epoch advances (churn-heavy, epoch-storm) the overall quantiles are
	// dominated by the advances; the read-only quantiles are what show
	// whether reads stay fast while an advance is in flight. Zero when
	// the workload issued no reads.
	ReadOps       int     `json:"read_ops,omitempty"`
	ReadP50Millis float64 `json:"read_p50_ms,omitempty"`
	ReadP99Millis float64 `json:"read_p99_ms,omitempty"`
	// MintOps / MintP50Millis / MintP99Millis cover only the mint
	// operations — each is a full PoW solve, so its quantiles sit far from
	// the routing ops and would otherwise be invisible inside the overall
	// distribution. Zero when the workload minted nothing.
	MintOps       int     `json:"mint_ops,omitempty"`
	MintP50Millis float64 `json:"mint_p50_ms,omitempty"`
	MintP99Millis float64 `json:"mint_p99_ms,omitempty"`
	// SuccessRate is (OK+NotFound)/Ops — the headline number of an attack
	// run: the fraction of operations the system answered correctly under
	// whatever pressure the workload applied. A miss on a never-written
	// key is the right answer; Unreachable stays a failure — it is the ε
	// the attack suite measures.
	SuccessRate float64 `json:"success_rate"`
	// ByStatus breaks every non-OK operation down by its cause:
	// "unreachable" and "not_found" for the semantic outcomes, "http_NNN"
	// for transport-level statuses (503 draining, 504 canceled), "error"
	// for everything else. Empty when every op succeeded.
	ByStatus map[string]int `json:"by_status,omitempty"`
	// Retries counts transport-level retry attempts the target performed
	// (see WithRetry). A retried-then-successful op counts once in OK and
	// once per extra attempt here — retries never inflate success.
	Retries int64 `json:"retries,omitempty"`
}

// workerTally is one worker's private accounting, merged after the run so
// the hot loop shares nothing.
type workerTally struct {
	lat                                metrics.Summary
	readLat                            metrics.Summary
	mintLat                            metrics.Summary
	ok, unreachable, notFound, errored int
	byStatus                           map[string]int
}

// count records one non-OK cause in the worker's by-status breakdown.
func (t *workerTally) count(key string) {
	if t.byStatus == nil {
		t.byStatus = make(map[string]int)
	}
	t.byStatus[key]++
}

// statusKey classifies one non-OK result for the ByStatus breakdown.
func statusKey(out Outcome, err error) string {
	if err == nil {
		return out.String()
	}
	var se *StatusError
	if errors.As(err, &se) {
		return fmt.Sprintf("http_%d", se.Status)
	}
	return "error"
}

// Run drives gen against target closed-loop and returns the measured
// service level. Workers claim op indices off a shared counter: which
// worker runs which op is scheduling-dependent, but the op *content* is a
// pure function of (seed, index), so the executed operation set is
// identical across runs and concurrency levels. Run stops early (with
// ctx.Err()) when ctx cancels; the partial result is still returned.
func Run(ctx context.Context, target Target, gen Generator, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	tallies := make([]workerTally, cfg.Concurrency)
	var retriesBefore int64
	if rc, ok := target.(RetryCounter); ok {
		retriesBefore = rc.Retries()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(t *workerTally) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= cfg.Ops {
					return
				}
				op := gen.Op(cfg.Seed, i)
				t0 := time.Now()
				out, err := target.Do(ctx, op)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				t.lat.Add(ms)
				if op.Kind == KindLookup || op.Kind == KindGet {
					t.readLat.Add(ms)
				}
				if op.Kind == KindMint {
					t.mintLat.Add(ms)
				}
				switch {
				case err != nil:
					t.errored++
					t.count(statusKey(out, err))
				case out == OK:
					t.ok++
				case out == Unreachable:
					t.unreachable++
					t.count(statusKey(out, nil))
				case out == NotFound:
					t.notFound++
					t.count(statusKey(out, nil))
				}
			}
		}(&tallies[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lat, readLat, mintLat metrics.Summary
	res := Result{Workload: gen.Name(), Seconds: elapsed.Seconds()}
	for i := range tallies {
		t := &tallies[i]
		lat.Merge(&t.lat)
		readLat.Merge(&t.readLat)
		mintLat.Merge(&t.mintLat)
		res.OK += t.ok
		res.Unreachable += t.unreachable
		res.NotFound += t.notFound
		res.Errors += t.errored
		for k, c := range t.byStatus {
			if res.ByStatus == nil {
				res.ByStatus = make(map[string]int)
			}
			res.ByStatus[k] += c
		}
	}
	if rc, ok := target.(RetryCounter); ok {
		res.Retries = rc.Retries() - retriesBefore
	}
	res.Ops = lat.N()
	if res.Ops > 0 {
		res.SuccessRate = float64(res.OK+res.NotFound) / float64(res.Ops)
	}
	if res.Seconds > 0 {
		res.Throughput = float64(res.Ops) / res.Seconds
	}
	res.P50Millis = lat.Quantile(0.50)
	res.P99Millis = lat.Quantile(0.99)
	res.MeanMillis = lat.Mean()
	res.MaxMillis = lat.Max()
	if res.ReadOps = readLat.N(); res.ReadOps > 0 {
		res.ReadP50Millis = readLat.Quantile(0.50)
		res.ReadP99Millis = readLat.Quantile(0.99)
	}
	if res.MintOps = mintLat.N(); res.MintOps > 0 {
		res.MintP50Millis = mintLat.Quantile(0.50)
		res.MintP99Millis = mintLat.Quantile(0.99)
	}
	return res, ctx.Err()
}

// Report is the BENCH_service.json document: one Result per workload of a
// sweep, plus the run's shape.
type Report struct {
	Target         string   `json:"target"`
	Concurrency    int      `json:"concurrency"`
	OpsPerWorkload int      `json:"ops_per_workload"`
	Seed           int64    `json:"seed"`
	Workloads      []Result `json:"workloads"`
}

// RunSuite runs every generator in order under one Config and collects the
// results into a Report (Target is left for the caller to stamp). It stops
// at the first context cancellation; transport errors within a workload do
// not abort the sweep — they surface in that workload's Errors count.
func RunSuite(ctx context.Context, target Target, gens []Generator, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{
		Concurrency:    cfg.Concurrency,
		OpsPerWorkload: cfg.Ops,
		Seed:           cfg.Seed,
		Workloads:      make([]Result, 0, len(gens)),
	}
	for _, g := range gens {
		res, err := Run(ctx, target, g, cfg)
		rep.Workloads = append(rep.Workloads, res)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON — the format committed as
// BENCH_service.json, alongside the BENCH_*.json files cmd/benchjson
// produces.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
