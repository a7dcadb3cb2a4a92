// Package wire defines the JSON shapes the shard daemons (internal/serve)
// and the router (tinygroups/cluster) exchange, so the two ends of the
// scatter-gather plane share one definition. Field order and tags are the
// wire format: the cluster determinism gate byte-compares routed replies
// against a standalone daemon's.
package wire

import "strconv"

// MaxBodyBytes caps a request body. A shard daemon and the router both
// refuse a larger body with 400 bad_request; the API carries keys and small
// values, so 1 MiB is generous. The router also bounds the shard replies it
// reads by it.
const MaxBodyBytes = 1 << 20

// MaxBatchItems caps the keys or pairs of one batch call. A shard daemon
// and the router both refuse a larger batch with the same 400 bad_request
// (message OverBatchLimit) before doing any work, so a router splitting a
// valid batch across shards sends each at most this many.
const MaxBatchItems = 4096

// OverBatchLimit is the bad_request message for a batch of more than
// MaxBatchItems items; noun names them ("keys" or "pairs").
func OverBatchLimit(noun string) string {
	return "more than " + strconv.Itoa(MaxBatchItems) + " " + noun
}

// Error is the envelope of every non-2xx response, from a shard or the
// router: one taxonomy of machine-readable codes end to end.
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// LookupBatchRequest is the body of /v1/lookup/batch.
type LookupBatchRequest struct {
	Keys []string `json:"keys"`
}

// KV is one pair of a /v1/put/batch body.
type KV struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"` // base64 in JSON
}

// PutBatchRequest is the body of /v1/put/batch.
type PutBatchRequest struct {
	Pairs []KV `json:"pairs"`
}

// BatchItem is one key's outcome in a batch response, in request order.
// Code follows the daemons' status taxonomy ("ok", "unreachable",
// "wrong_shard", ...) plus the router's "shard_unreachable";
// Owner/Hops/Messages carry the routing result when Code is "ok".
type BatchItem struct {
	Key      string `json:"key"`
	Code     string `json:"code"`
	Owner    string `json:"owner,omitempty"`
	Hops     int    `json:"hops,omitempty"`
	Messages int64  `json:"messages,omitempty"`
	Error    string `json:"error,omitempty"`
}

// BatchResponse carries per-key outcomes in request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}
