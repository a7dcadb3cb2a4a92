package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/tinygroups"
	"repro/tinygroups/loadgen"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"extra"}},
		{"unknown workload", []string{"-workloads", "tsunami"}},
		{"empty workloads", []string{"-workloads", ","}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), c.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
		})
	}
}

func TestRunNoDaemon(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", "http://127.0.0.1:1", "-ready-timeout", "100ms",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

// TestRunAgainstDaemon is the zero-to-report path: a live serving layer,
// the full default sweep, and a parseable report file on disk.
func TestRunAgainstDaemon(t *testing.T) {
	sys, err := tinygroups.New(128, tinygroups.WithSeed(1), tinygroups.WithMintWork(1<<8))
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(sys, serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", ts.URL, "-ops", "80", "-concurrency", "3",
		"-keys", "64", "-advance-every", "40", "-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, stderr.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Target != ts.URL || rep.OpsPerWorkload != 80 || len(rep.Workloads) != 6 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	for _, r := range rep.Workloads {
		if r.Ops != 80 || r.Errors != 0 {
			t.Fatalf("%s: ops=%d errors=%d, want 80/0", r.Workload, r.Ops, r.Errors)
		}
		if r.Throughput <= 0 {
			t.Fatalf("%s: throughput %v", r.Workload, r.Throughput)
		}
	}
	if !bytes.Contains(stdout.Bytes(), []byte("zipf-hotspot")) ||
		!bytes.Contains(stdout.Bytes(), []byte("mint-storm")) {
		t.Fatalf("summary table missing workloads:\n%s", stdout.String())
	}
}
