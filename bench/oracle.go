package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/tinygroups"
)

// systemSeed is the fixed seed of every system under test; the benchmark's
// own -seed only drives the op streams.
const systemSeed = 1

// systemOptions are the daemon's flag defaults, spelled out so the oracle
// and the ladders build exactly the system tinygroupsd serves.
func systemOptions(extra ...tinygroups.Option) []tinygroups.Option {
	return append([]tinygroups.Option{
		tinygroups.WithBeta(0.05),
		tinygroups.WithOverlay("chord"),
		tinygroups.WithSeed(systemSeed),
		tinygroups.WithMintWork(1 << 14),
	}, extra...)
}

// oracle is an in-process twin of the served system. Reads are pure
// functions of (seed, epoch, key), so it can say after the fact what every
// reply should have been.
type oracle struct {
	sys   *tinygroups.System
	snaps []*tinygroups.Snapshot // pinned generation per epoch
	fps   []string               // fingerprint per epoch
}

func newOracle(n int, extra ...tinygroups.Option) (*oracle, error) {
	sys, err := tinygroups.New(n, systemOptions(extra...)...)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{sys: sys, snaps: []*tinygroups.Snapshot{sys.Snapshot()}, fps: []string{sys.Fingerprint()}}, nil
}

func (o *oracle) close() { _ = o.sys.Close() } // Close never fails

// advanceTo follows the served system up to the given epoch.
func (o *oracle) advanceTo(epoch int) error {
	for len(o.snaps) <= epoch {
		if _, err := o.sys.AdvanceEpoch(context.Background()); err != nil {
			return fmt.Errorf("oracle advance: %w", err)
		}
		o.snaps = append(o.snaps, o.sys.Snapshot())
		o.fps = append(o.fps, o.sys.Fingerprint())
	}
	return nil
}

// known reports the newest epoch the oracle has followed.
func (o *oracle) known() int { return len(o.snaps) - 1 }

// route returns the routing result of key in the given epoch.
func (o *oracle) route(epoch int, key string) (tinygroups.LookupInfo, bool) {
	info, err := o.snaps[epoch].Lookup(context.Background(), key)
	return info, err == nil
}

// Reply shapes, decoded leniently: a field the benchmark does not know is
// not an error, a wrong value in one it knows is.
type lookupReply struct {
	Key      string `json:"key"`
	Owner    string `json:"owner"`
	Hops     int    `json:"hops"`
	Messages int64  `json:"messages"`
	Value    []byte `json:"value"`
}

type errorReply struct {
	Code string `json:"code"`
}

type batchReply struct {
	Results []struct {
		Key      string `json:"key"`
		Code     string `json:"code"`
		Owner    string `json:"owner"`
		Hops     int    `json:"hops"`
		Messages int64  `json:"messages"`
	} `json:"results"`
}

func ownerHex(p tinygroups.Point) string { return "0x" + strconv.FormatUint(uint64(p), 16) }

// verdict is the classifier's answer for one completed op.
type verdict uint8

const (
	verdictOK          verdict = iota // the reply the oracle predicted
	verdictUnreachable                // a predicted 502/404: a correct answer, the ε Theorem 3 concedes
	verdictFailed                     // everything else
)

// classify compares an HTTP status with the predicted one. Transport errors
// (status 0), sheds and timeouts (429/503/504) and any status the oracle did
// not predict are failures; a predicted 502 or 404 is a correct answer.
func classify(status, predicted int) verdict {
	switch {
	case status == 0,
		status == http.StatusTooManyRequests,
		status == http.StatusServiceUnavailable,
		status == http.StatusGatewayTimeout,
		status != predicted:
		return verdictFailed
	case status == http.StatusBadGateway, status == http.StatusNotFound:
		return verdictUnreachable
	case status == http.StatusOK:
		return verdictOK
	}
	return verdictFailed
}

// tally accumulates verdicts. firstErr keeps the first mismatch for the
// report; every mismatch counts in failed.
type tally struct {
	attempted   int
	failed      int
	unreachable int
	firstErr    string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.unreachable += u.unreachable
	if t.firstErr == "" {
		t.firstErr = u.firstErr
	}
}

// judge checks one completed op against the generations that may have
// answered it. epochs lists the candidate epochs; an epoch the oracle has
// not followed (beyond known) admits any well-formed 200/502. puts is
// consulted for get replies: it says whether a value index names a put of
// the key (nil when the workload has no gets).
func (o *oracle) judge(t *tally, r rec, q op, epochs []int, validPut func(key string, idx uint64) bool) {
	t.attempted++
	if q.kind == opAdvance {
		if classify(r.status, http.StatusOK) != verdictOK {
			t.fail("op %d advance: status %d: %s", r.idx, r.status, clip(r.body))
		}
		return
	}
	var lastErr error
	for _, e := range epochs {
		if e > o.known() {
			if r.status == http.StatusOK || r.status == http.StatusBadGateway {
				if r.status == http.StatusBadGateway {
					t.unreachable++
				}
				return
			}
			lastErr = fmt.Errorf("status %d", r.status)
			continue
		}
		v, err := o.judgeAt(r, q, e, validPut)
		if err == nil {
			if v == verdictUnreachable {
				t.unreachable++
			}
			return
		}
		lastErr = err
	}
	t.fail("op %d %s %s: %v", r.idx, q.kind, q.key, lastErr)
}

// judgeAt checks r against one followed epoch.
func (o *oracle) judgeAt(r rec, q op, epoch int, validPut func(string, uint64) bool) (verdict, error) {
	if q.kind == opBatch || q.kind == opPutBatch {
		return o.judgeBatch(r, q, epoch)
	}
	info, reachable := o.route(epoch, q.key)
	predicted := http.StatusOK
	if !reachable {
		predicted = http.StatusBadGateway
	}
	v := classify(r.status, predicted)
	if v == verdictFailed {
		return v, fmt.Errorf("epoch %d: status %d, predicted %d: %s", epoch, r.status, predicted, clip(r.body))
	}
	if r.body == nil { // not sampled: the status is all there is
		return v, nil
	}
	if v == verdictUnreachable {
		var e errorReply
		if err := json.Unmarshal(r.body, &e); err != nil || e.Code != "unreachable" {
			return verdictFailed, fmt.Errorf("epoch %d: 502 is not an unreachable reply: %s", epoch, clip(r.body))
		}
		return v, nil
	}
	var got lookupReply
	if err := json.Unmarshal(r.body, &got); err != nil {
		return verdictFailed, fmt.Errorf("epoch %d: undecodable reply: %v", epoch, err)
	}
	if got.Key != q.key || got.Owner != ownerHex(info.Owner) || got.Hops != info.Hops || got.Messages != info.Messages {
		return verdictFailed, fmt.Errorf("epoch %d: reply %s, predicted owner %s hops %d messages %d",
			epoch, clip(r.body), ownerHex(info.Owner), info.Hops, info.Messages)
	}
	if q.kind == opGet {
		if len(got.Value) != 16 || binary.BigEndian.Uint64(got.Value[:8]) != keyTag(q.key) ||
			!validPut(q.key, binary.BigEndian.Uint64(got.Value[8:])) {
			return verdictFailed, fmt.Errorf("epoch %d: get returned a value no put of %s wrote: %x", epoch, q.key, got.Value)
		}
	}
	return v, nil
}

// judgeBatch checks a batch reply: the count of unreachable items on every
// reply, each item field by field on sampled ones.
func (o *oracle) judgeBatch(r rec, q op, epoch int) (verdict, error) {
	if v := classify(r.status, http.StatusOK); v != verdictOK {
		return verdictFailed, fmt.Errorf("epoch %d: batch status %d: %s", epoch, r.status, clip(r.body))
	}
	want := 0
	for _, k := range q.keys {
		if _, ok := o.route(epoch, k); !ok {
			want++
		}
	}
	if r.unrch != want {
		return verdictFailed, fmt.Errorf("epoch %d: batch has %d unreachable items, predicted %d", epoch, r.unrch, want)
	}
	if r.body == nil {
		return verdictOK, nil
	}
	var got batchReply
	if err := json.Unmarshal(r.body, &got); err != nil || len(got.Results) != len(q.keys) {
		return verdictFailed, fmt.Errorf("epoch %d: batch reply malformed (%v, %d items)", epoch, err, len(got.Results))
	}
	for i, k := range q.keys {
		info, ok := o.route(epoch, k)
		it := got.Results[i]
		switch {
		case it.Key != k:
			return verdictFailed, fmt.Errorf("epoch %d: batch item %d is key %q, sent %q", epoch, i, it.Key, k)
		case !ok && it.Code != "unreachable", ok && it.Code != "ok":
			return verdictFailed, fmt.Errorf("epoch %d: batch item %s code %q, predicted reachable=%v", epoch, k, it.Code, ok)
		case ok && (it.Owner != ownerHex(info.Owner) || it.Hops != info.Hops || it.Messages != info.Messages):
			return verdictFailed, fmt.Errorf("epoch %d: batch item %s differs from the prediction", epoch, k)
		}
	}
	return verdictOK, nil
}

var unreachableItem = []byte(`"code":"unreachable"`)

// countUnreachable counts the items of a batch reply answered unreachable.
func countUnreachable(body []byte) int { return bytes.Count(body, unreachableItem) }

func clip(b []byte) string {
	if len(b) > 160 {
		b = b[:160]
	}
	return string(bytes.TrimSpace(b))
}

var errIncorrect = errors.New("bench: the oracle disagrees with the system under test")
