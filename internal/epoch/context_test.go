package epoch

import (
	"context"
	"errors"
	"testing"
)

// TestRunEpochContextCancelled: a cancelled context aborts without
// swapping generations or polluting tallies, and the system stays usable.
func TestRunEpochContextCancelled(t *testing.T) {
	cfg := DefaultConfig(512)
	cfg.Seed = 53
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunEpochContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Epoch() != 0 {
		t.Fatalf("aborted epoch advanced the counter to %d", s.Epoch())
	}
	st := s.RunEpoch() // the abort must not poison the next epoch
	if st.Epoch != 1 || st.Searches == 0 {
		t.Errorf("post-abort epoch malformed: %+v", st)
	}
}
