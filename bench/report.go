package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec mirrors the root BENCHMARK.json: the one place metric names,
// units, directions and regression bounds are fixed.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(repoRoot string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// result is one run of one workload.
type result struct {
	Name        string     `json:"name"`
	Seed        uint64     `json:"seed"`
	Correct     bool       `json:"correct"`
	Noisy       bool       `json:"noisy"`
	Calib       [2]float64 `json:"calib_sha256_mb_s"` // canary before and after
	SettledS    float64    `json:"settled_s"`         // waited for a quiet machine before starting
	Attempted   int        `json:"attempted_ops"`
	Failed      int        `json:"failed_ops"`
	Unreachable int        `json:"unreachable_ops"`
	FailRatio   float64    `json:"fail_ratio"`
	FirstError  string     `json:"first_error,omitempty"`
	// Metrics holds the end-to-end metrics of BENCHMARK.json; Detail the
	// workload's own extra readings (durable-mix's read/write split, counts);
	// Layers the per-layer metrics of a traced run.
	Metrics      map[string]stat    `json:"metrics"`
	Detail       map[string]stat    `json:"detail,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	SampleDigest string             `json:"sample_digest,omitempty"`
	Sampled      int                `json:"sampled_replies,omitempty"`
	DataDirFS    string             `json:"data_dir_fs,omitempty"`
}

func newResult(name string) *result {
	return &result{Name: name, Metrics: map[string]stat{}, Detail: map[string]stat{}, Layers: map[string]float64{}}
}

// absorb folds the oracle's tally into the result.
func (r *result) absorb(t tally) {
	r.Attempted, r.Failed, r.Unreachable, r.FirstError = t.attempted, t.failed, t.unreachable, t.firstErr
	if t.attempted > 0 {
		r.FailRatio = float64(t.failed) / float64(t.attempted)
	}
	r.Correct = t.failed == 0 && t.attempted > 0
}

// document is the one results shape: environment, settings, and every run
// of every workload.
type document struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Config struct {
		Seed    uint64 `json:"seed"`
		Seconds int    `json:"seconds"`
		N       int    `json:"n"`
		Clients int    `json:"clients"`
		Smoke   bool   `json:"smoke"`
		Trace   bool   `json:"trace"`
	} `json:"config"`
	Workloads []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name string    `json:"name"`
	Runs []*result `json:"runs"`
}

const schemaName = "tinygroups-bench/1"

func (d *document) write(path string) error {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schemaName)
	}
	return &d, nil
}

// values collects one end-to-end metric over the runs of a workload.
func (w *workloadDoc) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if s, ok := r.Metrics[metric]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}

// print writes the human-readable report of one run.
func (r *result) print(w io.Writer, spec *benchSpec, ws workloadSpec) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	if r.Noisy {
		status += ", noisy (canary drifted " + fmt.Sprintf("%.1f%%", 100*drift(r.Calib[0], r.Calib[1])) + ")"
	}
	if r.SettledS > 0 {
		status += fmt.Sprintf(", waited %.0f s for a quiet machine", r.SettledS)
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.Name, r.Seed, status)
	for _, m := range spec.EndToEnd {
		s, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		note := ""
		switch m.Name {
		case "heavy_p50_ms":
			note = "  (" + ws.heavy + ")"
		case "op_p50_ms", "op_p99_ms":
			if ws.name == "repro-suite" {
				note = "  (scenario run; p99 is the slowest scenario)"
			} else {
				note = "  (" + ws.gated.String() + ")"
			}
		}
		fmt.Fprintf(w, "  %-18s %12.4f %-5s n=%-7d slices [%.4f .. %.4f]%s\n", m.Name, s.Value, m.Unit, s.N, s.Min, s.Max, note)
	}
	details := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		details = append(details, k)
	}
	sort.Strings(details)
	for _, k := range details {
		s := r.Detail[k]
		fmt.Fprintf(w, "  %-18s %12.4f       n=%-7d slices [%.4f .. %.4f]\n", k, s.Value, s.N, s.Min, s.Max)
	}
	fmt.Fprintf(w, "  attempted_ops=%d failed_ops=%d unreachable_ops=%d fail_ratio=%g\n", r.Attempted, r.Failed, r.Unreachable, r.FailRatio)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first mismatch: %s\n", r.FirstError)
	}
	if len(r.Layers) > 0 {
		for _, m := range spec.PerLayer {
			if v, ok := r.Layers[m.Name]; ok {
				fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
}

// finalLine is the last line of standard output in single-workload mode:
// the contract the driver parses.
func (r *result) finalLine(spec *benchSpec, trace bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	if trace {
		for _, m := range spec.PerLayer {
			v, ok := r.Layers[m.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
			}
			out.Metrics[m.Name] = mv{v, m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			s, ok := r.Metrics[m.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			out.Metrics[m.Name] = mv{s.Value, m.Unit}
		}
	}
	return json.Marshal(out)
}
