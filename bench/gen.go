package main

import (
	"encoding/base64"
	"encoding/binary"
	"strconv"
)

// The op streams are pure functions of (seed, op index): any client may
// execute any index, so the set of ops a run issues depends only on how
// many it completes, never on the client count or their interleaving.

// splitmix64 is the finaliser of Vigna's SplitMix64.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the i-th 64-bit draw of the stream (seed, salt).
func draw(seed, salt, i uint64) uint64 {
	return splitmix64(splitmix64(seed^salt*0xd1342543de82ef95) + i)
}

// Stream salts. routed-read deliberately shares point-read's, so both
// workloads issue byte-identical requests and expect byte-identical replies.
const (
	saltPoint   = 1
	saltBulk    = 2
	saltDurable = 3
	saltChurn   = 4
	saltSuite   = 5 // repro-suite: the order of a pass
)

type opKind uint8

const (
	opLookup opKind = iota
	opBatch
	opPut
	opGet
	opAdvance
	opPutBatch // preload only: keys stored with their preload value
)

func (k opKind) String() string {
	return [...]string{"lookup", "batch", "put", "get", "advance", "put-batch"}[k]
}

// op is one generated request.
type op struct {
	kind opKind
	key  string   // lookup, put, get
	keys []string // batch
	val  []byte   // put
}

// appendKey appends prefix + 5 lower-case hex digits of v (v < 2^20).
func appendKey(dst []byte, prefix byte, v uint64) []byte {
	const hexdigits = "0123456789abcdef"
	dst = append(dst, prefix)
	for shift := 16; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(v>>uint(shift))&0xf])
	}
	return dst
}

func keyOf(prefix byte, v uint64) string {
	var b [6]byte
	return string(appendKey(b[:0], prefix, v))
}

// putValue is the 16-byte value of a put: the key's draw-independent tag
// followed by the writing op's index (preloads and kill cycles use indexes
// above any stream index, see valuePreload / valueCycle). A get reply is
// right when its tag matches the key and its index names a put of that key.
func putValue(key string, idx uint64) []byte {
	v := make([]byte, 16)
	binary.BigEndian.PutUint64(v[:8], keyTag(key))
	binary.BigEndian.PutUint64(v[8:], idx)
	return v
}

func keyTag(key string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	return splitmix64(h)
}

const (
	valuePreload = uint64(1) << 62 // index field of a preloaded value
	valueCycle   = uint64(1) << 61 // index field of a kill-cycle put
)

// generator produces one workload's op stream.
type generator struct {
	seed     uint64
	salt     uint64
	kind     opKind // opLookup, opBatch, or opPut for the put/get mix
	keyspace uint64
	batch    int
}

func newGenerator(workload string, seed uint64, cfg *config) generator {
	switch workload {
	case "point-read", "routed-read":
		return generator{seed: seed, salt: saltPoint, kind: opLookup, keyspace: cfg.keyspace}
	case "bulk-read":
		return generator{seed: seed, salt: saltBulk, kind: opBatch, keyspace: cfg.keyspace, batch: cfg.batch}
	case "durable-mix":
		return generator{seed: seed, salt: saltDurable, kind: opPut, keyspace: uint64(cfg.preload)}
	case "epoch-churn":
		return generator{seed: seed, salt: saltChurn, kind: opLookup, keyspace: cfg.keyspace}
	}
	panic("bench: no generator for workload " + workload)
}

// at returns op i of the stream.
func (g generator) at(i uint64) op {
	switch g.kind {
	case opLookup:
		return op{kind: opLookup, key: keyOf('k', draw(g.seed, g.salt, i)%g.keyspace)}
	case opBatch:
		keys := make([]string, g.batch)
		for j := range keys {
			keys[j] = keyOf('k', draw(g.seed, g.salt, i*uint64(g.batch)+uint64(j))%g.keyspace)
		}
		return op{kind: opBatch, keys: keys}
	default:
		r := draw(g.seed, g.salt, i)
		key := keyOf('d', (r>>1)%g.keyspace)
		if r&1 == 1 {
			return op{kind: opPut, key: key, val: putValue(key, i)}
		}
		return op{kind: opGet, key: key}
	}
}

// request renders o as an HTTP request: method, path and JSON body. Keys
// are [a-z0-9] only, so they need no JSON escaping. body is appended to buf.
func (o op) request(buf []byte) (method, path string, body []byte) {
	switch o.kind {
	case opLookup:
		buf = append(buf, `{"key":"`...)
		buf = append(buf, o.key...)
		buf = append(buf, `"}`...)
		return "POST", "/v1/lookup", buf
	case opBatch:
		buf = append(buf, `{"keys":[`...)
		for j, k := range o.keys {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '"')
			buf = append(buf, k...)
			buf = append(buf, '"')
		}
		buf = append(buf, `]}`...)
		return "POST", "/v1/lookup/batch", buf
	case opPut:
		buf = append(buf, `{"key":"`...)
		buf = append(buf, o.key...)
		buf = append(buf, `","value":"`...)
		buf = base64.StdEncoding.AppendEncode(buf, o.val)
		buf = append(buf, `"}`...)
		return "POST", "/v1/put", buf
	case opGet:
		return "GET", "/v1/get?key=" + o.key, nil
	case opAdvance:
		return "POST", "/v1/epoch/advance", nil
	case opPutBatch:
		buf = append(buf, `{"pairs":[`...)
		for j, k := range o.keys {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"key":"`...)
			buf = append(buf, k...)
			buf = append(buf, `","value":"`...)
			buf = base64.StdEncoding.AppendEncode(buf, putValue(k, valuePreload))
			buf = append(buf, `"}`...)
		}
		buf = append(buf, `]}`...)
		return "POST", "/v1/put/batch", buf
	}
	panic("bench: unknown op kind " + strconv.Itoa(int(o.kind)))
}
