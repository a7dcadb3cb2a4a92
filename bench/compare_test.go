package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic builds a document with one workload whose runs carry the given
// values of each metric.
func synthetic(values map[string][]float64, failed int) *document {
	d := &document{Schema: schemaName}
	w := workloadDoc{Name: "point-read"}
	for i := 0; i < 5; i++ {
		r := newResult("point-read")
		r.Attempted, r.Failed, r.Correct = 1000, failed, failed == 0
		for m, vs := range values {
			r.Metrics[m] = stat{Value: vs[i], N: 1}
		}
		w.Runs = append(w.Runs, r)
	}
	d.Workloads = []workloadDoc{w}
	return d
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.20},
		{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	}}
	old := synthetic(map[string][]float64{
		"throughput_ops_s": {1000, 1010, 990, 1005, 995},
		"op_p50_ms":        {0.100, 0.101, 0.099, 0.100, 0.102},
		"op_p99_ms":        {0.50, 0.80, 0.40, 0.90, 0.60}, // noisy
		"rss_mb":           {40, 40, 40, 40, 40},
	}, 0)
	changed := synthetic(map[string][]float64{
		"throughput_ops_s": {1200, 1210, 1190, 1205, 1195},      // +20 %: improved
		"op_p50_ms":        {0.120, 0.121, 0.119, 0.120, 0.122}, // +20 %: regressed
		"op_p99_ms":        {0.55, 0.85, 0.45, 0.95, 0.65},      // inside the noise
		"rss_mb":           {41, 41, 41, 41, 41},                // +2.5 %: unchanged
	}, 0)
	rows, rise := compareDocs(spec, old, changed)
	want := map[string]string{"throughput_ops_s": improved, "op_p50_ms": regressed, "op_p99_ms": unresolved, "rss_mb": unchanged}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: %s (change %+.3f, spread %.3f), want %s", r.Metric, r.Verdict, r.Change, r.Spread, want[r.Metric])
		}
	}
	if len(rise) != 0 {
		t.Errorf("fail_ratio did not rise, yet: %v", rise)
	}

	// Every new run worse than every old run resolves a noisy metric.
	worse := synthetic(map[string][]float64{"op_p99_ms": {1.5, 1.8, 1.4, 1.9, 1.6}}, 0)
	rows, _ = compareDocs(spec, old, worse)
	if len(rows) != 1 || rows[0].Verdict != regressed {
		t.Errorf("disjoint noisy runs: %+v", rows)
	}

	// The exit status: 1 on a regression, 1 on a rise in fail_ratio, else 0.
	dir := t.TempDir()
	write := func(name string, d *document) string {
		p := filepath.Join(dir, name)
		if err := d.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath, changedPath := write("old.json", old), write("changed.json", changed)
	var out bytes.Buffer
	if got := compareFiles(&out, spec, oldPath, changedPath); got != 1 {
		t.Errorf("regression: exit %d\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "point-read") {
		t.Errorf("table lacks its rows:\n%s", out.String())
	}
	if got := compareFiles(&out, spec, oldPath, oldPath); got != 0 {
		t.Errorf("identical documents: exit %d", got)
	}
	failing := write("failing.json", synthetic(map[string][]float64{"rss_mb": {40, 40, 40, 40, 40}}, 3))
	out.Reset()
	if got := compareFiles(&out, spec, oldPath, failing); got != 1 || !strings.Contains(out.String(), "fail_ratio rose") {
		t.Errorf("fail_ratio rise: exit %d\n%s", got, out.String())
	}
	if got := compareFiles(&out, spec, oldPath, filepath.Join(dir, "missing.json")); got != 2 {
		t.Errorf("missing file: exit %d", got)
	}
}
