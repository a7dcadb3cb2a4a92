package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec loads the root BENCHMARK.json the way main does.
func spec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return s, root
}

// TestSpecMatchesCode holds BENCHMARK.json and the code together: the same
// workloads with the same reasons, the same per-layer names.
func TestSpecMatchesCode(t *testing.T) {
	s, _ := spec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, s.Workloads[i].Name, w.name)
		}
	}
	names := layerNames()
	if len(s.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(s.PerLayer), len(names))
	}
	for i, n := range names {
		if s.PerLayer[i].Name != n {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %q, the code %q", i, s.PerLayer[i].Name, n)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("no setup_s metric in end_to_end")
	}
}

// daemonsOf lists live processes started from dir.
func daemonsOf(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, e := range entries {
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err == nil && bytes.Contains(cmdline, []byte(dir)) {
			found = append(found, e.Name()+": "+strings.ReplaceAll(string(cmdline), "\x00", " "))
		}
	}
	return found
}

// TestSmoke runs all six workloads, then one traced run with every ladder,
// at toy sizes: the harness end to end, measuring nothing.
func TestSmoke(t *testing.T) {
	s, root := spec(t)
	out := filepath.Join(t.TempDir(), "smoke.json")
	doc, err := execute(options{smoke: true, seed: 1, seconds: 1, runs: 1, out: out}, s, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads ran", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		r := w.Runs[0]
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", w.Name, r.Correct, r.Attempted, r.Failed, r.FirstError)
		}
		if _, err := r.finalLine(s, false); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for _, m := range s.EndToEnd {
			if r.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, every end-to-end metric must be positive", w.Name, m.Name, r.Metrics[m.Name].Value)
			}
		}
	}
	if _, err := readDocument(out); err != nil {
		t.Error(err)
	}
	if got := compareFiles(&bytes.Buffer{}, s, out, out); got != 0 {
		t.Errorf("a document compared with itself: exit %d", got)
	}

	doc, err = execute(options{smoke: true, trace: true, workload: "durable-mix", seed: 1, seconds: 1, runs: 1, out: out}, s, root)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Workloads[0].Runs[0]
	if _, err := r.finalLine(s, true); err != nil {
		t.Error(err)
	}
	if a := r.Layers["tinygroups.lookup_allocs"]; a != 0 && !raceEnabled {
		t.Errorf("tinygroups.lookup_allocs = %v", a)
	}
	if fi, err := os.Stat(filepath.Join("results", "trace.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("results/trace.jsonl: %v", err)
	}
	if left := daemonsOf(t, filepath.Join(root, "bench", ".work")); len(left) != 0 {
		t.Errorf("daemons outlived the run: %v", left)
	}
}

// TestFailedRunLeavesNoChild corrupts one reply: the run must report the
// oracle's disagreement, map to a non-zero exit, and leave no daemon behind.
func TestFailedRunLeavesNoChild(t *testing.T) {
	s, root := spec(t)
	tamper := func(recs []rec) {
		for i, rc := range recs {
			if rc.body != nil && rc.status == 200 {
				recs[i].body = bytes.Replace(rc.body, []byte(`"owner":"0x`), []byte(`"owner":"0xf`), 1)
				return
			}
		}
	}
	out := filepath.Join(t.TempDir(), "failed.json")
	doc, err := execute(options{smoke: true, workload: "routed-read", seed: 1, seconds: 1, runs: 1, out: out, tamper: tamper}, s, root)
	if !errors.Is(err, errIncorrect) || exitCode(err) != 1 {
		t.Fatalf("a corrupted reply gave err %v, exit %d", err, exitCode(err))
	}
	if r := doc.Workloads[0].Runs[0]; r.Correct || r.Failed != 1 {
		t.Errorf("correct=%v failed=%d", r.Correct, r.Failed)
	}
	if left := daemonsOf(t, filepath.Join(root, "bench", ".work")); len(left) != 0 {
		t.Errorf("daemons outlived the failed run: %v", left)
	}
}
