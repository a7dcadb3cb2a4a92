package tinygroups

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	disk "repro/internal/snapshot"
)

// copyDir snapshots a data directory's current on-disk bytes — the state a
// SIGKILL at that instant would leave behind (appends are plain writes, so
// the page cache, and hence these copies, hold everything).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// replies captures everything a reader can observe about a System's state
// for a fixed probe set: the generation fingerprint and the full reply —
// value, routing info, error — of Get, Lookup and LookupBatch per key.
type replies struct {
	fp      string
	epoch   int
	lookup  map[string]string
	get     map[string]string
	batch   []string
	durKeys int
}

func observe(t *testing.T, s *System, probes []string) replies {
	t.Helper()
	ctx := context.Background()
	r := replies{fp: s.Fingerprint(), epoch: s.Epoch(), lookup: map[string]string{}, get: map[string]string{}}
	for _, k := range probes {
		info, err := s.Lookup(ctx, k)
		r.lookup[k] = fmt.Sprintf("%+v/%v", info, err)
		v, info, err := s.Get(ctx, k)
		r.get[k] = fmt.Sprintf("%q/%+v/%v", v, info, err)
	}
	out, err := s.LookupBatch(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range out {
		r.batch = append(r.batch, fmt.Sprintf("%+v/%v", br.Info, br.Err))
	}
	return r
}

// TestRestoreEquivalence is the PR's acceptance gate: a System restored
// from disk must report a byte-identical epoch fingerprint and
// byte-identical Lookup/Get/LookupBatch replies vs the System that saved
// it — across three epoch boundaries, with puts landing between epochs
// (op-log replay), restored at workers 1 and 4 regardless of the saver's
// worker count.
func TestRestoreEquivalence(t *testing.T) {
	const n = 96
	const epochs = 3
	dir := t.TempDir()
	saver, err := New(n, WithSeed(7), WithDataDir(dir), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer saver.Close()
	if saver.Durability().Recovered {
		t.Fatal("fresh data dir reported a recovery")
	}

	var probes []string
	for i := 0; i < 12; i++ {
		probes = append(probes, fmt.Sprintf("probe-%d", i))
	}
	ctx := context.Background()
	want := make([]replies, 0, epochs)
	dirs := make([]string, 0, epochs)
	for e := 1; e <= epochs; e++ {
		if _, err := saver.AdvanceEpoch(ctx); err != nil {
			t.Fatal(err)
		}
		// Puts after the boundary live only in the op log until the next
		// snapshot — restore must replay them.
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("probe-%d", (e-1)*4+i)
			if _, err := saver.Put(ctx, key, []byte(fmt.Sprintf("v%d-%d", e, i))); err != nil && !errors.Is(err, ErrUnreachable) {
				t.Fatal(err)
			}
		}
		w := observe(t, saver, probes)
		w.durKeys = int(saver.Durability().OplogAppends)
		want = append(want, w)
		dirs = append(dirs, copyDir(t, dir))
	}

	for ei, ddir := range dirs {
		for _, workers := range []int{1, 4} {
			// Private copy per restore: recovery checkpoints and the
			// continuity advance below write into the data dir.
			restored, err := New(n, WithSeed(7), WithDataDir(copyDir(t, ddir)), WithWorkers(workers))
			if err != nil {
				t.Fatalf("epoch %d workers %d: %v", ei+1, workers, err)
			}
			info := restored.Durability()
			if !info.Recovered {
				t.Fatalf("epoch %d workers %d: not recovered from disk", ei+1, workers)
			}
			got := observe(t, restored, probes)
			got.durKeys = want[ei].durKeys
			if !reflect.DeepEqual(got, want[ei]) {
				t.Fatalf("epoch %d workers %d: restored replies diverge:\n got %+v\nwant %+v", ei+1, workers, got, want[ei])
			}
			// And the restored system's future matches the saver's: its next
			// boundary is the fingerprint the saver reached at e+1.
			if ei+1 < len(want) {
				if _, err := restored.AdvanceEpoch(ctx); err != nil {
					t.Fatal(err)
				}
				if fp := restored.Fingerprint(); fp != want[ei+1].fp {
					t.Fatalf("epoch %d workers %d: post-restore advance diverges from saver's epoch %d", ei+1, workers, ei+2)
				}
			}
			restored.Close()
		}
	}
}

// A crash-copy taken mid-interval replays the op log; the recovery
// checkpoint folds it into a rewritten snapshot so a second crash in the
// same interval still recovers everything without unbounded log growth.
func TestRecoveryCheckpointFoldsOplog(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := New(64, WithSeed(3), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdvanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	stored := 0
	for i := 0; i < 8; i++ {
		if _, err := s.Put(ctx, fmt.Sprintf("k%d", i), []byte{byte(i)}); err == nil {
			stored++
		}
	}
	// Abandon without Close: the op log was never fsynced, but its bytes
	// are on the page cache — a SIGKILL keeps them.
	crash := copyDir(t, dir)
	r1, err := New(64, WithSeed(3), WithDataDir(crash))
	if err != nil {
		t.Fatal(err)
	}
	d := r1.Durability()
	if !d.Recovered || int(d.ReplayedOps) != stored {
		t.Fatalf("first recovery: %+v (want %d replayed)", d, stored)
	}
	r1.Close()
	// Second recovery from the checkpointed dir: zero ops to replay, same
	// keys present.
	r2, err := New(64, WithSeed(3), WithDataDir(crash))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	d = r2.Durability()
	if !d.Recovered || d.ReplayedOps != 0 {
		t.Fatalf("second recovery: %+v (want 0 replayed)", d)
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := r2.Get(ctx, k); err != nil && !errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("get %s: %v", k, err)
		}
	}
}

// Crash matrix at the tinygroups layer: a torn op-log tail and a corrupt
// newest snapshot must both recover to the newest valid state.
func TestRecoveryCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := New(64, WithSeed(5), WithDataDir(dir), WithSnapshotKeep(5))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for e := 0; e < 2; e++ {
		if _, err := s.AdvanceEpoch(ctx); err != nil {
			t.Fatal(err)
		}
	}
	fpAt2 := s.Fingerprint()
	if _, err := s.Put(ctx, "tail", []byte("torn")); err != nil && !errors.Is(err, ErrUnreachable) {
		t.Fatal(err)
	}

	t.Run("torn op-log tail", func(t *testing.T) {
		crash := copyDir(t, dir)
		logPath := filepath.Join(crash, "oplog-000000000002.tglog")
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(logPath, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		r, err := New(64, WithSeed(5), WithDataDir(crash), WithSnapshotKeep(5))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		d := r.Durability()
		if !d.Recovered || d.DiscardedLogBytes == 0 {
			t.Fatalf("torn tail not surfaced: %+v", d)
		}
		if r.Fingerprint() != fpAt2 {
			t.Fatal("torn-tail recovery lost the epoch-2 generation")
		}
		// The torn put is gone — exactly the unacknowledged-write semantics.
		if _, _, err := r.Get(ctx, "tail"); err == nil {
			t.Fatal("torn put survived")
		}
	})

	t.Run("corrupt newest snapshot", func(t *testing.T) {
		crash := copyDir(t, dir)
		name := filepath.Join(crash, "snap-000000000002.tgsnap")
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/3] ^= 0xFF
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := New(64, WithSeed(5), WithDataDir(crash), WithSnapshotKeep(5))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		d := r.Durability()
		if !d.Recovered || d.SkippedSnapshots != 1 || d.SnapshotEpoch > 1 {
			t.Fatalf("no fallback to epoch 1: %+v", d)
		}
		if r.Epoch() != 1 {
			t.Fatalf("recovered epoch %d, want 1", r.Epoch())
		}
	})

	t.Run("all snapshots corrupt cold-boots", func(t *testing.T) {
		crash := copyDir(t, dir)
		entries, _ := os.ReadDir(crash)
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".tgsnap" {
				if err := os.WriteFile(filepath.Join(crash, e.Name()), []byte("junk"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		r, err := New(64, WithSeed(5), WithDataDir(crash), WithSnapshotKeep(5))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Durability().Recovered {
			t.Fatal("recovered from junk")
		}
		if r.Epoch() != 0 {
			t.Fatalf("cold boot at epoch %d", r.Epoch())
		}
	})
}

// Changing a determinism-relevant option against an existing data dir must
// fail loudly, never silently serve a different universe.
func TestRecoveryRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := New(64, WithSeed(5), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := New(64, WithSeed(6), WithDataDir(dir)); !errors.Is(err, disk.ErrConfigMismatch) {
		t.Fatalf("seed change: got %v, want ErrConfigMismatch", err)
	}
	if _, err := New(64, WithSeed(5), WithBeta(0.1), WithDataDir(dir)); !errors.Is(err, disk.ErrConfigMismatch) {
		t.Fatalf("beta change: got %v, want ErrConfigMismatch", err)
	}
	// Worker count is explicitly NOT part of the config key.
	r, err := New(64, WithSeed(5), WithDataDir(dir), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Durability().Recovered {
		t.Fatal("worker-count change blocked recovery")
	}
	r.Close()
}

// TestRecoveryRejectsMintWorkChange: mint claims depend on the work, so a
// data dir written at one WithMintWork must refuse to restore at another,
// not keep serving the old difficulty behind the new configuration.
func TestRecoveryRejectsMintWorkChange(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := New(256, WithDataDir(dir), WithMintWork(1024))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdvanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err := New(256, WithDataDir(dir), WithMintWork(4096)); !errors.Is(err, disk.ErrConfigMismatch) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("mint work change: got %v, want ErrConfigMismatch", err)
	}
	r, err := New(256, WithDataDir(dir), WithMintWork(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.AdvanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	if !r.Durability().Recovered || r.MintWork() != 1024 {
		t.Fatalf("same-work restart: recovered=%v work=%g", r.Durability().Recovered, r.MintWork())
	}
}

// TestCloseReportsOplogSyncFailure: Close is the op log's only fsync of
// the puts acknowledged since the last snapshot, so its failure must reach
// the caller; a second Close still returns nil.
func TestCloseReportsOplogSyncFailure(t *testing.T) {
	s, err := New(64, WithSeed(5), WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(context.Background(), "k", []byte("v")); err != nil && !errors.Is(err, ErrUnreachable) {
		t.Fatal(err)
	}
	// Closing the log underneath the System makes Close's sync fail.
	if err := s.durable.oplog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the op log's sync failure")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}

// Every epoch boundary writes a snapshot; retention prunes old epochs.
func TestSaveSnapshotAndRetention(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := New(64, WithSeed(9), WithDataDir(dir), WithSnapshotKeep(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for e := 0; e < 4; e++ {
		if _, err := s.AdvanceEpoch(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snaps := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tgsnap" {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("retention kept %d snapshots, want 2", snaps)
	}
	d := s.Durability()
	if d.SnapshotEpoch != 4 || d.SnapshotsWritten != 5 { // boot + 4 boundaries
		t.Fatalf("unexpected durability counters: %+v", d)
	}
	plain, err := New(64, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Durability().Enabled {
		t.Fatal("durability reported enabled without a data dir")
	}
}
