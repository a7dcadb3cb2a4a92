package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		// The write dispatcher's knobs went with the dispatcher.
		{"removed -max-batch", []string{"-max-batch", "256"}},
		{"removed -queue", []string{"-queue", "1024"}},
		{"removed -write-timeout", []string{"-write-timeout", "10s"}},
		{"positional args", []string{"extra"}},
		{"population too small", []string{"-n", "4"}},
		{"unknown overlay", []string{"-overlay", "torus"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(context.Background(), c.args, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
		})
	}
}

func TestRunBadListenAddr(t *testing.T) {
	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-n", "64", "-addr", "256.256.256.256:0"}, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "serve") {
		t.Fatalf("stderr missing serve error: %s", stderr.String())
	}
}

// TestRunCleanShutdown drives the daemon's full lifecycle: start, serve,
// signal (via context cancellation — the same path SIGTERM takes), drain,
// exit 0.
func TestRunCleanShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-n", "64", "-addr", "127.0.0.1:0", "-epoch-interval", "20ms"}, &stderr)
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of the signal")
	}
	if !strings.Contains(stderr.String(), "clean exit") {
		t.Fatalf("stderr missing clean-exit line: %s", stderr.String())
	}
}
