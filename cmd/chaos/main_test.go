package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"-daemon", "x", "extra"}},
		{"missing daemon", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
		})
	}
}

// TestRunMissingBinary also checks that a failed run keeps its default
// temp data dir and prints where it is: the dir is the evidence.
func TestRunMissingBinary(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run([]string{"-daemon", filepath.Join(t.TempDir(), "nope")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	_, dir, ok := strings.Cut(stderr.String(), "chaos: data dir kept at ")
	dir = strings.TrimSpace(dir)
	if !ok || dir == "" {
		t.Fatalf("stderr does not name the kept data dir:\n%s", stderr.String())
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("kept data dir %q is gone: %v", dir, err)
	}
}

// freeAddr reserves an ephemeral port and releases it for the daemon —
// racy in principle, fine for a test.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestChaosKillRestart is the harness's own end-to-end drill at small
// scale: build the real daemon, run the full boot → attack → SIGKILL →
// restart → friendly-tail sequence, and require a PASS.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kill/restart drill in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "tinygroupsd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/tinygroupsd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build tinygroupsd: %v\n%s", err, out)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-daemon", bin,
		"-addr", freeAddr(t),
		"-n", "256",
		"-ops", "120",
		"-keys", "64",
		"-concurrency", "2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("chaos run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !bytes.Contains(stdout.Bytes(), []byte("chaos: PASS")) {
		t.Fatalf("missing PASS line\nstdout:\n%s", stdout.String())
	}
}
