// Package snapshot implements the durability layer behind tinygroups'
// WithDataDir: a versioned, checksummed binary snapshot of one committed
// epoch generation, an append-only op log for the puts that land between
// epoch boundaries, and a data-directory manager that writes snapshots
// atomically (temp file + fsync + rename) and loads the newest valid one,
// falling back past corrupt or torn files.
//
// The format leans on the repo's backbone invariant — determinism. A
// snapshot does not serialize derived state (overlay tables, rank indexes,
// membership maps, read-path randomness): all of it is a pure function of
// what is stored, so the loader rebuilds it and the restored system is
// byte-identical to the one that saved. The placement rng is captured as a
// single draw count (re-seed + fast-forward restores its exact state), and
// the saved generation fingerprint lets the loader verify the rebuild
// end-to-end before serving a byte.
//
// Decoders in this package are fuzzed: arbitrary input must never panic,
// only fail with an error wrapping ErrCorrupt.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is wrapped by every decode failure: truncated input, bad
// magic, checksum mismatch, or structurally impossible counts. Callers
// branch with errors.Is to distinguish corruption (fall back to an older
// snapshot) from I/O errors (surface them).
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrConfigMismatch is returned when a structurally valid snapshot was
// written by a system with different determinism-relevant configuration —
// loading it would silently serve a different universe, so it is a hard
// error, not a fallback.
var ErrConfigMismatch = errors.New("snapshot: config mismatch")

// magic opens every snapshot file; version is bumped on any format change.
var magic = [6]byte{'T', 'G', 'S', 'N', 'A', 'P'}

// version is the current snapshot format version.
const version = 1

// ConfigKey echoes every configuration setting that shapes the
// deterministic state trajectory. A snapshot loads only into a system whose
// ConfigKey is identical; anything absent here (worker counts, observers,
// queue sizes) is explicitly allowed to differ across a restart. Float
// fields are carried as IEEE 754 bits so the comparison is exact.
type ConfigKey struct {
	N              int
	Seed           int64
	BetaBits       uint64
	Overlay        string
	TwoGraphs      bool
	VerifyRequests bool
	Strategy       int
	SpamFactor     int
	DepartBits     uint64 // mid-epoch departure fraction
	DriftBits      uint64 // size-drift fraction
}

// Member is one group member: an ID-space point plus its corruption bit.
type Member struct {
	ID  uint64
	Bad bool
}

// Group is one group's durable state, keyed by its leader's ring rank.
type Group struct {
	Members  []Member
	Bad      bool
	Confused bool
}

// KV is one stored key/value pair. Snapshots carry keys sorted ascending so
// encoding is independent of map iteration order.
type KV struct {
	Key   string
	Value []byte
}

// Snapshot is the full durable state of one committed epoch boundary.
type Snapshot struct {
	Config   ConfigKey
	Epoch    int
	RNGCount uint64
	// MintWork is the mint difficulty the System serves, in expected
	// attempts per ID.
	MintWork float64
	// Fingerprint is the generation digest the saver computed; the loader
	// verifies the rebuilt generation against it before serving.
	Fingerprint string
	Ring        []uint64
	BadList     []uint64
	Graphs      [][]Group
	Keys        []KV
}

// Encode serializes s into the versioned, checksummed wire form.
func Encode(s *Snapshot) []byte {
	var b bytes.Buffer
	b.Write(magic[:])
	writeUint(&b, version)
	writeUint(&b, uint64(s.Config.N))
	writeUint(&b, uint64(s.Config.Seed))
	writeUint(&b, s.Config.BetaBits)
	writeString(&b, s.Config.Overlay)
	writeBool(&b, s.Config.TwoGraphs)
	writeBool(&b, s.Config.VerifyRequests)
	writeUint(&b, uint64(s.Config.Strategy))
	writeUint(&b, uint64(s.Config.SpamFactor))
	writeUint(&b, s.Config.DepartBits)
	writeUint(&b, s.Config.DriftBits)

	writeUint(&b, uint64(s.Epoch))
	writeUint(&b, s.RNGCount)
	writeUint(&b, math.Float64bits(s.MintWork))
	// A retired slot, always written as 0; it goes at ROADMAP item 10's
	// version bump.
	writeUint(&b, 0)
	writeString(&b, s.Fingerprint)

	writeUint(&b, uint64(len(s.Ring)))
	for _, p := range s.Ring {
		writeUint(&b, p)
	}
	writeUint(&b, uint64(len(s.BadList)))
	for _, p := range s.BadList {
		writeUint(&b, p)
	}
	writeUint(&b, uint64(len(s.Graphs)))
	for _, g := range s.Graphs {
		writeUint(&b, uint64(len(g)))
		for _, grp := range g {
			writeBool(&b, grp.Bad)
			writeBool(&b, grp.Confused)
			writeUint(&b, uint64(len(grp.Members)))
			for _, m := range grp.Members {
				writeUint(&b, m.ID)
				writeBool(&b, m.Bad)
			}
		}
	}
	writeUint(&b, uint64(len(s.Keys)))
	for _, kv := range s.Keys {
		writeString(&b, kv.Key)
		writeBytes(&b, kv.Value)
	}
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	return b.Bytes()
}

// Decode parses a snapshot, verifying magic, version and checksum. Any
// malformed input fails with an error wrapping ErrCorrupt; Decode never
// panics on arbitrary bytes.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+checksum", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &decoder{data: body}
	var m [6]byte
	d.read(m[:])
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m[:])
	}
	if v := d.uint(); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	s := &Snapshot{}
	s.Config.N = int(d.uint())
	s.Config.Seed = int64(d.uint())
	s.Config.BetaBits = d.uint()
	s.Config.Overlay = d.string(maxNameLen)
	s.Config.TwoGraphs = d.bool()
	s.Config.VerifyRequests = d.bool()
	s.Config.Strategy = int(d.uint())
	s.Config.SpamFactor = int(d.uint())
	s.Config.DepartBits = d.uint()
	s.Config.DriftBits = d.uint()

	if e := d.uint(); e > maxEpoch {
		return nil, fmt.Errorf("%w: absurd epoch %d", ErrCorrupt, e)
	} else {
		s.Epoch = int(e)
	}
	s.RNGCount = d.uint()
	s.MintWork = math.Float64frombits(d.uint())
	d.uint() // the retired slot Encode writes as 0
	s.Fingerprint = d.string(maxNameLen)

	s.Ring = d.points()
	s.BadList = d.points()
	nGraphs := d.count(8) // 2 in practice; 8 is an absurdity bound
	for gi := uint64(0); gi < nGraphs && d.err == nil; gi++ {
		nGroups := d.count(8)
		g := make([]Group, 0, min(nGroups, uint64(d.remaining())))
		for i := uint64(0); i < nGroups && d.err == nil; i++ {
			var grp Group
			grp.Bad = d.bool()
			grp.Confused = d.bool()
			nm := d.count(2)
			grp.Members = make([]Member, 0, min(nm, uint64(d.remaining())))
			for j := uint64(0); j < nm && d.err == nil; j++ {
				grp.Members = append(grp.Members, Member{ID: d.uint(), Bad: d.bool()})
			}
			g = append(g, grp)
		}
		s.Graphs = append(s.Graphs, g)
	}
	nKeys := d.count(2)
	s.Keys = make([]KV, 0, min(nKeys, uint64(d.remaining())))
	for i := uint64(0); i < nKeys && d.err == nil; i++ {
		k := d.string(maxKeyLen)
		v := d.bytes(maxValueLen)
		s.Keys = append(s.Keys, KV{Key: k, Value: v})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return s, nil
}

// Sanity bounds for variable-length fields; anything beyond them in a
// checksum-valid file is structural corruption, not data.
const (
	maxNameLen  = 256
	maxKeyLen   = 1 << 16
	maxValueLen = 1 << 24
	maxEpoch    = 1 << 40
)

// decoder is a bounds-checked cursor over the snapshot body. Every read
// records the first failure in err and returns zero values afterwards, so
// decode loops stay panic-free on arbitrary input.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) read(dst []byte) {
	if d.err != nil {
		return
	}
	if d.remaining() < len(dst) {
		d.fail("need %d bytes, have %d", len(dst), d.remaining())
		return
	}
	copy(dst, d.data[d.off:])
	d.off += len(dst)
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// count reads a length prefix and rejects values that could not possibly
// fit in the remaining bytes (each counted element costs at least one byte
// divided by the density factor — the allocation-bomb guard).
func (d *decoder) count(minBytesPer int) uint64 {
	v := d.uint()
	if d.err != nil {
		return 0
	}
	if minBytesPer < 1 {
		minBytesPer = 1
	}
	if v > uint64(d.remaining()*minBytesPer) {
		d.fail("count %d exceeds remaining input", v)
		return 0
	}
	return v
}

func (d *decoder) bool() bool {
	var b [1]byte
	d.read(b[:])
	if d.err != nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte %d", b[0])
		return false
	}
}

func (d *decoder) bytes(maxLen int) []byte {
	n := d.uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(maxLen) || n > uint64(d.remaining()) {
		d.fail("byte field of %d exceeds bound", n)
		return nil
	}
	out := make([]byte, n)
	d.read(out)
	return out
}

func (d *decoder) string(maxLen int) string { return string(d.bytes(maxLen)) }

func (d *decoder) points() []uint64 {
	n := d.count(1)
	out := make([]uint64, 0, min(n, uint64(d.remaining())))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.uint())
	}
	return out
}

func writeUint(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	b.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func writeBool(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

func writeBytes(b *bytes.Buffer, v []byte) {
	writeUint(b, uint64(len(v)))
	b.Write(v)
}

func writeString(b *bytes.Buffer, v string) {
	writeUint(b, uint64(len(v)))
	b.WriteString(v)
}
