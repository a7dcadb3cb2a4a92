package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleSnapshot is a small but structurally complete snapshot: two
// graphs, mixed flags, stored keys including an empty value.
func sampleSnapshot(epoch int) *Snapshot {
	return &Snapshot{
		Config: ConfigKey{
			N: 64, Seed: 1, BetaBits: 0x3FA999999999999A, Overlay: "chord",
			TwoGraphs: true, VerifyRequests: true, Strategy: 0, SpamFactor: 0,
		},
		Epoch:       epoch,
		RNGCount:    12345,
		MintWork:    16384,
		Fingerprint: "feedface",
		Ring:        []uint64{1, 5, 9, 200},
		BadList:     []uint64{9},
		Graphs: [][]Group{
			{
				{Members: []Member{{ID: 1}, {ID: 9, Bad: true}}, Bad: true},
				{Members: []Member{{ID: 5}}, Confused: true},
			},
			{
				{Members: []Member{{ID: 200}}},
			},
		},
		Keys: []KV{
			{Key: "alpha", Value: []byte("one")},
			{Key: "empty", Value: []byte{}},
			{Key: "zeta", Value: []byte{0, 1, 2, 255}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot(7)
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotRetiredSlotCompat: a v1 image whose retired slot after
// MintWork is non-zero — what a data dir written while the slot still held
// mint-retargeting state carries — decodes to the same snapshot, and
// re-encodes (slot 0) to an image that decodes to it again.
func TestSnapshotRetiredSlotCompat(t *testing.T) {
	want := sampleSnapshot(7)
	data := Encode(want)
	body := data[:len(data)-sha256.Size]
	// The slot sits between the MintWork varint and the fingerprint string.
	var mark bytes.Buffer
	writeUint(&mark, math.Float64bits(want.MintWork))
	before := mark.Len()
	writeUint(&mark, 0)
	writeString(&mark, want.Fingerprint)
	if n := bytes.Count(body, mark.Bytes()); n != 1 {
		t.Fatalf("retired slot located %d times, want 1", n)
	}
	at := bytes.Index(body, mark.Bytes()) + before
	var legacy bytes.Buffer
	legacy.Write(body[:at])
	writeUint(&legacy, math.Float64bits(4096))
	legacy.Write(body[at+1:]) // the 0 slot is one varint byte
	sum := sha256.Sum256(legacy.Bytes())
	legacy.Write(sum[:])

	got, err := Decode(legacy.Bytes())
	if err != nil {
		t.Fatalf("decode legacy image: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy image decoded to\n %+v\nwant %+v", got, want)
	}
	re := Encode(got)
	if !bytes.Equal(re, data) {
		t.Fatal("re-encoded legacy snapshot differs from the canonical encoding")
	}
	if again, err := Decode(re); err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("re-decode: %v", err)
	}
}

// Every truncation and every single-byte corruption of a valid snapshot
// must fail with ErrCorrupt — never panic, never decode silently wrong.
// This is the byte-level half of the crash matrix (the file-level half
// lives in TestDirFallsBack*).
func TestSnapshotDecodeRejectsAllTruncationsAndFlips(t *testing.T) {
	data := Encode(sampleSnapshot(3))
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
	if _, err := Decode(append(data, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing byte accepted")
	}
}

func TestOplogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "oplog-test.tglog")
	lg, err := CreateLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: nil},
		{Key: "c", Value: []byte{0, 255}},
	}
	for _, op := range want {
		if err := lg.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if lg.Count() != len(want) {
		t.Fatalf("count %d, want %d", lg.Count(), len(want))
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	epoch, ops, discarded, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 || discarded != 0 {
		t.Fatalf("epoch %d discarded %d", epoch, discarded)
	}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i, op := range ops {
		if op.Key != want[i].Key || string(op.Value) != string(want[i].Value) {
			t.Fatalf("op %d: %+v != %+v", i, op, want[i])
		}
	}
}

// A torn tail — the log truncated at any byte past the header — must
// replay every complete record before the tear and report the discarded
// bytes, never error and never panic.
func TestOplogTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.tglog")
	lg, err := CreateLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Op{
		{Key: "k1", Value: []byte("v1")},
		{Key: "k2", Value: []byte("v2")},
		{Key: "k3", Value: []byte("v3")},
	}
	var ends []int64
	for _, op := range recs {
		if err := lg.Append(op); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	lg.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := int(ends[0]) - (int(ends[1]) - int(ends[0]))
	for cut := headerLen; cut <= len(full); cut++ {
		_, ops, discarded, err := decodeLog(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		complete := 0
		lastEnd := int64(headerLen)
		for _, end := range ends {
			if int64(cut) >= end {
				complete++
				lastEnd = end
			}
		}
		if len(ops) != complete {
			t.Fatalf("cut %d: replayed %d ops, want %d", cut, len(ops), complete)
		}
		if want := cut - int(lastEnd); discarded != want {
			t.Fatalf("cut %d: discarded %d bytes, want %d", cut, discarded, want)
		}
	}
	// A corrupted (not torn) record likewise stops replay at the last good
	// record instead of erroring.
	mut := append([]byte(nil), full...)
	mut[ends[1]+5] ^= 0xFF
	_, ops, discarded, err := decodeLog(mut)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || discarded == 0 {
		t.Fatalf("corrupt 3rd record: got %d ops, discarded %d", len(ops), discarded)
	}
	// Header corruption is a different story: the file is unidentifiable.
	mut = append([]byte(nil), full...)
	mut[0] ^= 0xFF
	if _, _, _, err := decodeLog(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt header: got %v, want ErrCorrupt", err)
	}
}

func TestDirWriteLoadPrune(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e <= 3; e++ {
		if err := d.WriteSnapshot(sampleSnapshot(e)); err != nil {
			t.Fatal(err)
		}
		lg, err := CreateLog(d.LogPath(e), e)
		if err != nil {
			t.Fatal(err)
		}
		lg.Append(Op{Key: "k", Value: []byte{byte(e)}})
		lg.Close()
	}
	res, err := d.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Epoch != 3 || len(res.Ops) != 1 || res.Ops[0].Value[0] != 3 {
		t.Fatalf("loaded epoch %d with %d ops", res.Snapshot.Epoch, len(res.Ops))
	}
	if res.SkippedSnapshots != 0 || res.DiscardedLogBytes != 0 {
		t.Fatalf("clean load reported skips: %+v", res)
	}
	if err := d.Prune(2); err != nil {
		t.Fatal(err)
	}
	epochs, err := d.snapshotEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 3 || epochs[1] != 2 {
		t.Fatalf("after prune: %v", epochs)
	}
	// Op logs of pruned snapshots go with them.
	if _, err := os.Stat(d.LogPath(1)); !os.IsNotExist(err) {
		t.Fatal("pruned epoch's op log still present")
	}
	if _, err := os.Stat(d.LogPath(3)); err != nil {
		t.Fatal("retained epoch's op log removed")
	}
}

// File-level crash matrix: corrupt newest snapshot falls back to the one
// before it; all snapshots corrupt is ErrNoSnapshot; leftover temp files
// (a kill before rename) are reaped and never loaded.
func TestDirFallsBackPastCorruptSnapshots(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e <= 2; e++ {
		if err := d.WriteSnapshot(sampleSnapshot(e)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill mid-temp-write: a partial temp file for epoch 3.
	if err := os.WriteFile(filepath.Join(path, "snap-000000000003.tgsnap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest real snapshot.
	name := filepath.Join(path, "snap-000000000002.tgsnap")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Reopen (reaps temp files) and load: epoch 1 is the newest valid.
	d, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(path, "snap-000000000003.tgsnap.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp file survived reopen")
	}
	res, err := d.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Epoch != 1 || res.SkippedSnapshots != 1 {
		t.Fatalf("fell back to epoch %d, skipped %d", res.Snapshot.Epoch, res.SkippedSnapshots)
	}
	// Truncate every snapshot: nothing valid remains.
	for e := 0; e <= 2; e++ {
		if err := os.WriteFile(d.snapPath(e), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all corrupt: got %v, want ErrNoSnapshot", err)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
}
