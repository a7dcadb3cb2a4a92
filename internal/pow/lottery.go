package pow

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/overlay"
	"repro/internal/ring"
	"repro/internal/sim"
)

// LotteryString identifies one generated random string by its origin and
// sequence number, with the lottery output h(s ⊕ r_{i-1}) it hashes to.
// Outputs cannot be forged (any receiver recomputes the hash), so the
// simulation ships (identity, output) pairs instead of raw bits.
type LotteryString struct {
	Output float64 // h(s ⊕ r_{i-1}) ∈ (0,1); smaller is better
	Origin int     // node that generated it (N = the adversary)
	Seq    int
}

// LotteryConfig parameterizes one execution of the Appendix VIII protocol.
type LotteryConfig struct {
	// Steps is the number of Phase-1 hash attempts per good node (the
	// paper's T/2 − 2d'·ln n window at one attempt per step).
	Steps int64
	// AdvAttempts is the adversary's total attempts; the paper allows it to
	// compute over the whole epoch, i.e. up to β·n·T.
	AdvAttempts int64
	// C0 caps each bin counter at C0·ln n forwards (the paper's c₀).
	C0 float64
	// D0 sizes the solution set at D0·ln n strings (the paper's d₀).
	D0 float64
	// PropRounds is the number of rounds per propagation phase (the
	// paper's d'·ln n); it must cover the component's diameter.
	PropRounds int
	// Attack selects the adversary behavior: "none", or "split" — release
	// its best strings in the final Phase-2 round to only half the nodes,
	// the paper's critical disagreement scenario.
	Attack string
	// SilentFraction marks a u.a.r. fraction of positions as bad groups
	// that neither generate nor forward strings (the paper's Appendix VIII
	// addresses "the giant component of (1−1/polylog n)·n good IDs that
	// can reach each other"). Lemma 12's properties are then evaluated
	// over the giant component of the non-silent subgraph.
	SilentFraction float64
	// GroupSize scales sim messages into real messages (each group-graph
	// edge exchange is |G|² messages).
	GroupSize int
	Seed      int64
}

// DefaultLotteryConfig returns sensible defaults for n nodes and epoch
// length T (steps per node ≈ T/2).
func DefaultLotteryConfig(n int, T int64) LotteryConfig {
	ln := math.Log(float64(n) + 2)
	return LotteryConfig{
		Steps:       T / 2,
		AdvAttempts: int64(0.1 * float64(n) * float64(T)),
		C0:          3,
		D0:          2,
		PropRounds:  int(math.Ceil(2*ln)) + 4,
		Attack:      "none",
		GroupSize:   6,
		Seed:        1,
	}
}

// LotteryResult aggregates the Lemma 12 measurements.
type LotteryResult struct {
	N int
	// WinnersCovered is property (i): every good node's selected winner
	// si* appears in every good node's solution set.
	WinnersCovered bool
	// MissingPairs counts (w, u) pairs violating property (i).
	MissingPairs int
	// MaxSetSize / MeanSetSize are property (ii): |R| = O(ln n).
	MaxSetSize  int
	MeanSetSize float64
	// MaxStored bounds total per-node record storage across bins.
	MaxStored int
	// SimMessages is the number of group-to-group messages; RealMessages
	// multiplies by |G|² (property (iii): Õ(n·ln T)).
	SimMessages  int64
	RealMessages int64
	Rounds       int
	// DistinctWinners counts distinct si* values across good nodes
	// (diagnostic: the adversary's split attack raises this above 1).
	DistinctWinners int
	// ComponentSize is the number of good nodes in the giant component the
	// properties were evaluated over (= N when SilentFraction is 0).
	ComponentSize int
}

// binIndex returns j such that x ∈ B_j = [2^-j, 2^-(j-1)), clamped to
// [1, numBins].
func binIndex(x float64, numBins int) int {
	if x <= 0 {
		return numBins
	}
	j := int(math.Ceil(-math.Log2(x)))
	if j < 1 {
		j = 1
	}
	if j > numBins {
		j = numBins
	}
	return j
}

// lotteryNode is one good ID (standing for its group) running the
// bins-and-counters propagation protocol.
type lotteryNode struct {
	id        int
	neighbors []sim.NodeID
	numBins   int
	cap       int

	own LotteryString

	seen     []uint64          // bitset over seenSlot of every string received
	binBest  []float64         // smallest output seen per bin
	counters []int             // forwards per bin
	records  [][]LotteryString // accepted record strings per bin

	best     LotteryString // smallest-output string seen so far
	haveBest bool
	p2End    int           // round index of the last Phase-2 round
	star     LotteryString // si*: selected at the end of Phase 2
	haveStar bool
	forwardQ []LotteryString
	// outbox is Step's message buffer, reused round over round: the
	// network reads a returned outbox only until the node's next Step.
	outbox []sim.Message
}

// seenSlot numbers a string by its identity: good node i's one string
// (Seq 0) is slot i, and the adversary's Seq-th string (Origin n) is slot
// n+Seq. The identity fixes Output, so one bit per slot dedups exactly
// what a set of whole strings would, at n/8 bytes per node instead of a
// map entry per string.
func seenSlot(s LotteryString) int { return s.Origin + s.Seq }

func (n *lotteryNode) accept(s LotteryString) (forward bool) {
	k := seenSlot(s)
	w, bit := k>>6, uint64(1)<<(k&63)
	if n.seen[w]&bit != 0 {
		return false
	}
	n.seen[w] |= bit
	if !n.haveBest || s.Output < n.best.Output {
		n.best, n.haveBest = s, true
	}
	j := binIndex(s.Output, n.numBins)
	// Record-breaking within its bin, and bin counter not exhausted.
	if (len(n.records[j-1]) == 0 || s.Output < n.binBest[j-1]) && n.counters[j-1] < n.cap {
		n.binBest[j-1] = s.Output
		n.counters[j-1]++
		n.records[j-1] = append(n.records[j-1], s)
		return true
	}
	return false
}

// Step implements sim.Node.
func (n *lotteryNode) Step(round int, inbox []sim.Message) []sim.Message {
	out := n.outbox[:0]
	if round == 0 {
		// Phase 2 start: announce own Phase-1 minimum.
		n.accept(n.own)
		out = appendBroadcast(out, n.own, n.neighbors)
	}
	for _, m := range inbox {
		s, ok := m.Payload.(LotteryString)
		if !ok {
			continue
		}
		if n.accept(s) {
			n.forwardQ = append(n.forwardQ, s)
		}
	}
	for _, s := range n.forwardQ {
		out = appendBroadcast(out, s, n.neighbors)
	}
	n.forwardQ = n.forwardQ[:0]
	if round == n.p2End && !n.haveStar {
		n.star, n.haveStar = n.best, true
	}
	n.outbox = out
	return out
}

// appendBroadcast appends one message carrying s to every ID in to — the
// in-place sim.Broadcast, so a reused outbox allocates nothing per round.
func appendBroadcast(out []sim.Message, s LotteryString, to []sim.NodeID) []sim.Message {
	var p any = s
	for _, v := range to {
		out = append(out, sim.Message{To: v, Payload: p})
	}
	return out
}

// solutionSet applies the paper's end-of-Phase-3 rule: start from the
// deepest non-empty bin and collect record strings for decreasing j until
// d₀·ln n elements are gathered.
func (n *lotteryNode) solutionSet(target int) []LotteryString {
	var set []LotteryString
	for j := n.numBins; j >= 1 && len(set) < target; j-- {
		set = append(set, n.records[j-1]...)
	}
	return set
}

// advNode is the adversary: it injects its pre-computed strings at the
// scheduled round to the scheduled victims. It stands for all bad groups at
// once (they perfectly collude).
type advNode struct {
	strings []LotteryString
	release int
	victims []sim.NodeID
}

func (a *advNode) Step(round int, inbox []sim.Message) []sim.Message {
	if round != a.release || len(a.strings) == 0 {
		return nil
	}
	var out []sim.Message
	for _, s := range a.strings {
		out = appendBroadcast(out, s, a.victims)
	}
	return out
}

// BuildAdjacency converts an overlay graph into the symmetric index-based
// adjacency the lottery runs on (links are bidirectional connections).
func BuildAdjacency(ov overlay.Graph) [][]sim.NodeID {
	r := ov.Ring()
	idx := make(map[ring.Point]int, r.Len())
	for i, p := range r.Points() {
		idx[p] = i
	}
	adj := make([][]sim.NodeID, r.Len())
	add := func(u, v int) {
		for _, x := range adj[u] {
			if x == sim.NodeID(v) {
				return
			}
		}
		adj[u] = append(adj[u], sim.NodeID(v))
	}
	for i, p := range r.Points() {
		for _, nb := range ov.Neighbors(p) {
			j := idx[nb]
			if j != i {
				add(i, j)
				add(j, i)
			}
		}
	}
	return adj
}

// RunLottery executes the string-generation-and-propagation protocol over
// the given good-component adjacency (adj[i] lists the neighbors of good
// node i) and returns the Lemma 12 measurements.
func RunLottery(cfg LotteryConfig, adj [][]sim.NodeID) LotteryResult {
	n := len(adj)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ln := math.Log(float64(n) + 2)
	capPerBin := int(math.Ceil(cfg.C0 * ln))
	setTarget := int(math.Ceil(cfg.D0 * ln))
	numBins := int(math.Ceil(math.Log2(float64(n)*float64(cfg.Steps)+2))) + 6

	// Silent positions model bad groups that refuse to participate; the
	// protocol's guarantees are then scoped to the giant component of the
	// remaining nodes.
	silent := make([]bool, n)
	if cfg.SilentFraction > 0 {
		for i := range silent {
			silent[i] = rng.Float64() < cfg.SilentFraction
		}
	}

	// One seen bitset per node, carved from a single slab: slots run to
	// n + capPerBin, past the adversary's last string (see seenSlot).
	seenWords := (n + capPerBin + 63) / 64
	seen := make([]uint64, n*seenWords)
	nodes := make([]sim.Node, n, n+1)
	lns := make([]*lotteryNode, n)
	for i := 0; i < n; i++ {
		if silent[i] {
			nodes[i] = silentNode{}
			continue
		}
		l := &lotteryNode{
			id:        i,
			neighbors: adj[i],
			numBins:   numBins,
			cap:       capPerBin,
			seen:      seen[i*seenWords : (i+1)*seenWords : (i+1)*seenWords],
			binBest:   make([]float64, numBins),
			counters:  make([]int, numBins),
			records:   make([][]LotteryString, numBins),
			p2End:     cfg.PropRounds - 1,
			// Phase-1 minimum of `Steps` u.a.r. outputs: inverse-CDF
			// sampling of the minimum of Steps uniforms.
			own: LotteryString{
				Output: 1 - math.Pow(1-rng.Float64(), 1/float64(cfg.Steps)),
				Origin: i,
			},
		}
		lns[i] = l
		nodes[i] = l
	}

	// Adversary strings: the k smallest order statistics of AdvAttempts
	// uniforms, sampled sequentially via exponential spacings.
	var advStrings []LotteryString
	if cfg.Attack != "none" && cfg.AdvAttempts > 0 {
		k := capPerBin // more would be absorbed by the counters anyway
		cum := 0.0
		for i := 0; i < k; i++ {
			cum += rng.ExpFloat64() / float64(cfg.AdvAttempts)
			if cum >= 1 {
				break
			}
			advStrings = append(advStrings, LotteryString{Output: cum, Origin: n, Seq: i})
		}
	}
	victims := make([]sim.NodeID, 0, n/2)
	for i := 0; i < n/2; i++ {
		victims = append(victims, sim.NodeID(i))
	}
	nodes = append(nodes, &advNode{
		strings: advStrings,
		release: cfg.PropRounds - 2, // arrives in the final Phase-2 round
		victims: victims,
	})

	nw := sim.New(nodes)
	totalRounds := 2 * cfg.PropRounds
	st := nw.Run(totalRounds)

	res := LotteryResult{N: n, Rounds: st.Rounds, SimMessages: st.Delivered}
	res.RealMessages = st.Delivered * int64(cfg.GroupSize) * int64(cfg.GroupSize)

	// Scope the Lemma 12 properties to the giant component of non-silent
	// nodes (identical to all nodes when SilentFraction is 0).
	comp := giantComponent(adj, silent)
	res.ComponentSize = len(comp)

	// Property (ii): solution-set and storage sizes.
	sets := make(map[int]map[LotteryString]bool, len(comp))
	sumSet := 0
	for _, i := range comp {
		l := lns[i]
		set := l.solutionSet(setTarget)
		m := make(map[LotteryString]bool, len(set))
		for _, s := range set {
			m[s] = true
		}
		sets[i] = m
		if len(set) > res.MaxSetSize {
			res.MaxSetSize = len(set)
		}
		sumSet += len(set)
		stored := 0
		for _, b := range l.records {
			stored += len(b)
		}
		if stored > res.MaxStored {
			res.MaxStored = stored
		}
	}
	if len(comp) > 0 {
		res.MeanSetSize = float64(sumSet) / float64(len(comp))
	}

	// Property (i): every component node's winner is in every component
	// node's solution set.
	res.WinnersCovered = true
	winners := map[LotteryString]bool{}
	for _, i := range comp {
		winners[lns[i].star] = true
	}
	res.DistinctWinners = len(winners)
	winnerList := make([]LotteryString, 0, len(winners))
	for s := range winners {
		winnerList = append(winnerList, s)
	}
	sort.Slice(winnerList, func(i, j int) bool { return winnerList[i].Output < winnerList[j].Output })
	for _, s := range winnerList {
		for _, i := range comp {
			if !sets[i][s] {
				res.WinnersCovered = false
				res.MissingPairs++
			}
		}
	}
	return res
}

// silentNode is a non-participating (bad) group: it never generates,
// accepts or forwards anything.
type silentNode struct{}

// Step implements sim.Node.
func (silentNode) Step(int, []sim.Message) []sim.Message { return nil }

// giantComponent returns the largest connected component of the subgraph
// induced by non-silent nodes, as a sorted index list.
func giantComponent(adj [][]sim.NodeID, silent []bool) []int {
	n := len(adj)
	seen := make([]bool, n)
	var best []int
	for s := 0; s < n; s++ {
		if seen[s] || silent[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range adj[u] {
				if !seen[v] && !silent[v] {
					seen[v] = true
					queue = append(queue, int(v))
				}
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	sort.Ints(best)
	return best
}
