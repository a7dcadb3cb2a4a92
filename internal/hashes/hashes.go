// Package hashes provides the random-oracle hash families the paper assumes
// (§I-C, §IV-A): functions with domain and range [0,1) whose outputs are
// modeled as uniformly distributed on first query.
//
// The paper names five: h₁ and h₂ (group-membership points, §III-A), f and g
// (the two-hash-composition ID-generation scheme, §IV-A), and h (string
// outputs for the global-randomness lottery, Appendix VIII). We realize all
// of them as SHA-256 with domain-separation tags, which under the
// random-oracle assumption gives independent uniform functions. Range
// elements are ring.Point values (64-bit fixed point in [0,1)).
//
// Every oracle query funnels through one-shot sha256.Sum256 calls over
// stack-composed buffers, so the point APIs are allocation-free — they sit
// on the hot path of group construction (d₂·ln ln n queries per group) and
// PoW solving (one query per attempt).
package hashes

import (
	"crypto/sha256"
	"encoding/binary"
	"io"

	"repro/internal/ring"
)

// Func is a keyed random-oracle hash with range [0,1).
type Func struct {
	tag []byte
}

// Named oracle instances matching the paper's notation.
var (
	// H1 and H2 locate the members of a group: the i-th member of G_w is
	// suc(h₁(w,i)) in graph 1 and suc(h₂(w,i)) in graph 2 (§III-A).
	H1 = NewFunc("h1")
	H2 = NewFunc("h2")
	// F and G compose to mint IDs: the ID is f(g(σ ⊕ r)) when
	// g(σ ⊕ r) ≤ τ (§IV-A).
	F = NewFunc("f")
	G = NewFunc("g")
	// H scores lottery strings in the global-randomness protocol
	// (Appendix VIII).
	H = NewFunc("h")
)

// NewFunc returns an independent random-oracle function identified by tag.
// Distinct tags behave as independent oracles.
func NewFunc(tag string) Func {
	return Func{tag: []byte(tag)}
}

// oneShotMax bounds tag‖sep‖data compositions that hash via a stack buffer;
// longer inputs take the streaming path. It covers every caller in this
// repository (tags ≤ 8 bytes, data ≤ 64 bytes).
const oneShotMax = 96

// sum computes SHA-256(tag ‖ sep ‖ data) without heap allocation for
// inputs up to oneShotMax bytes. The byte layout is identical to the
// streaming fallback, so outputs never depend on which path ran.
func (f Func) sum(sep byte, data []byte) [sha256.Size]byte {
	if len(f.tag)+1+len(data) <= oneShotMax {
		var buf [oneShotMax]byte
		n := copy(buf[:], f.tag)
		buf[n] = sep
		n++
		n += copy(buf[n:], data)
		return sha256.Sum256(buf[:n])
	}
	h := sha256.New()
	h.Write(f.tag)
	h.Write([]byte{sep})
	h.Write(data)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Point hashes an arbitrary byte string to a point in [0,1).
func (f Func) Point(data []byte) ring.Point {
	s := f.sum(0, data)
	return ring.Point(binary.BigEndian.Uint64(s[:8]))
}

// PointString is Point for string keys. Output is bit-identical to
// Point([]byte(key)); short keys compose into the same stack buffer, so
// the call stays allocation-free without forcing a []byte conversion
// escape onto the caller — it sits on the key-lookup hot path of the
// public API.
func (f Func) PointString(key string) ring.Point {
	if len(f.tag)+1+len(key) <= oneShotMax {
		var buf [oneShotMax]byte
		n := copy(buf[:], f.tag)
		buf[n] = 0
		n++
		n += copy(buf[n:], key)
		s := sha256.Sum256(buf[:n])
		return ring.Point(binary.BigEndian.Uint64(s[:8]))
	}
	h := sha256.New()
	h.Write(f.tag)
	h.Write([]byte{0})
	io.WriteString(h, key)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return ring.Point(binary.BigEndian.Uint64(out[:8]))
}

// pointAt hashes a (point, index) pair, the paper's h(w, i) form used to
// derive the i-th member location of group G_w.
func (f Func) pointAt(w ring.Point, i int) ring.Point {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(w))
	binary.BigEndian.PutUint64(buf[8:], uint64(i))
	return f.Point(buf[:])
}

// PointsAt fills dst[:n] with the member points h(w,1) … h(w,n) — the batch
// form group construction uses to locate all d₂·ln ln n members of G_w in
// one pass. The tag‖sep‖w prefix is composed once and only the index field
// is rewritten per query; outputs are bit-identical to calling pointAt(w, i)
// for i = 1..n. dst is grown if its capacity is short; the filled slice is
// returned.
func (f Func) PointsAt(w ring.Point, n int, dst []ring.Point) []ring.Point {
	if cap(dst) < n {
		dst = make([]ring.Point, n)
	}
	dst = dst[:n]
	if len(f.tag)+17 > oneShotMax {
		for i := range dst {
			dst[i] = f.pointAt(w, i+1)
		}
		return dst
	}
	var buf [oneShotMax]byte
	p := copy(buf[:], f.tag)
	buf[p] = 0 // the Point domain separator
	p++
	binary.BigEndian.PutUint64(buf[p:], uint64(w))
	idx := buf[p+8 : p+16]
	msg := buf[:p+16]
	for i := range dst {
		binary.BigEndian.PutUint64(idx, uint64(i+1))
		s := sha256.Sum256(msg)
		dst[i] = ring.Point(binary.BigEndian.Uint64(s[:8]))
	}
	return dst
}

// OfPoint hashes a single point, the composition form f(g(·)) of §IV-A.
func (f Func) OfPoint(p ring.Point) ring.Point {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(p))
	return f.Point(buf[:])
}

// Bytes hashes data to a 32-byte digest (used where a full-width string is
// needed, e.g. lottery strings).
func (f Func) Bytes(data []byte) [32]byte {
	return f.sum(1, data)
}

// XOR returns a ⊕ b, the paper's σ ⊕ r operation on ℓ·ln n-bit strings.
func XOR(a, b []byte) []byte {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return XORInto(make([]byte, n), a, b)
}

// XORInto writes a ⊕ b into dst, truncating to the shortest of the three
// slices, and returns the written prefix of dst. It is the allocation-free
// form used by the PoW solve/verify hot loops; XOR is the allocating
// convenience wrapper.
func XORInto(dst, a, b []byte) []byte {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if len(dst) < n {
		n = len(dst)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
	return dst
}
