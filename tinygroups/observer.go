package tinygroups

// Op names the operation behind a SearchEvent.
type Op uint8

// The keyed operations a SearchEvent can report: every routed search is
// triggered by one of these four. No caller outside the package's tests
// branches on them yet: they wait for ROADMAP item 14's daemon observer.
const (
	OpLookup Op = iota
	OpPut
	OpGet
	OpCompute
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpLookup:
		return "lookup"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpCompute:
		return "compute"
	}
	return "unknown"
}

// SearchEvent reports one routed search: the operation that triggered it,
// its outcome, and its secure-routing cost.
type SearchEvent struct {
	Op       Op
	Key      string
	OK       bool  // false when the search path hit a red group
	Owner    Point // suc(h(key)) on success, 0 otherwise
	Hops     int   // groups traversed
	Messages int64 // all-to-all message cost
}

// EpochEvent reports one completed epoch's construction statistics.
type EpochEvent struct {
	Stats Stats
}

// MintEvent reports the PoW minting outcome behind one epoch's generation
// (Lemma 11): the whole population re-mints, the adversary's computational
// share yields its ≈βn u.a.r. IDs.
type MintEvent struct {
	Epoch  int
	Minted int // IDs minted for the new generation (the population size)
	Bad    int // adversary-held IDs among them
}

// Observer receives system telemetry. Calls are synchronous, on the
// goroutine running the operation — and because reads are lock-free, two
// concurrent readers invoke ObserveSearch concurrently: implementations
// must be safe for concurrent use (atomics or a mutex) and fast. Epoch
// events (ObserveEpoch, ObserveMint) come only from the serialized writer
// and never race each other. Batch operations report their search events
// in key order after the parallel phase completes. A nil observer
// disables all of this at zero cost (no event values are built).
type Observer interface {
	// ObserveSearch is called once per routed operation (Lookup, Put, Get,
	// Compute, and each key of a batch).
	ObserveSearch(SearchEvent)
	// ObserveEpoch is called after each successful AdvanceEpoch.
	ObserveEpoch(EpochEvent)
	// ObserveMint is called after each successful AdvanceEpoch with the
	// minting telemetry of the generation just built.
	ObserveMint(MintEvent)
}
