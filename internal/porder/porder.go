// Package porder turns the memory controller's persistence event
// stream into a persist-ordering graph and enumerates crash points that
// cut distinct ordering edges, in the spirit of WITCHER's output-driven
// crash-state reduction: two crash points that cut the same set of
// happens-before edges land in equivalent crash states, so a torture
// budget is better spent covering one point per distinct edge cut than
// sampling the trace uniformly.
//
// The graph's vertices are the tap events (memctrl.SetEventTap), each
// tagged with the index of the trace operation during which it fired.
// Edges are the durability orderings the ADR/atomic-draining contract
// promises; a crash point "cuts" an edge when its source transition has
// happened but its sink has not, which is exactly the window in which
// an implementation bug reordering the two becomes observable.
package porder

import (
	"fmt"

	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
)

// Event is one controller persistence event, tagged with the trace
// operation during which it fired. Op uses the torture harness's crash
// semantics: CrashAt=k means operations [0,k) executed, so an event
// with Op=i has happened at crash point k iff i < k.
type Event struct {
	Kind memctrl.EventKind
	Addr mem.Addr
	Op   int
}

// Recorder observes one engine run through the controller's event tap
// and tags every event with the current trace operation.
type Recorder struct {
	events []Event
	op     int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// TapTarget is anything carrying the controller's observational event
// tap — the controller itself, or the storage-engine facade fronting
// it.
type TapTarget interface {
	SetEventTap(func(memctrl.Event)) func(memctrl.Event)
}

// Attach installs the recorder as the target's event tap.
func (r *Recorder) Attach(t TapTarget) {
	t.SetEventTap(func(ev memctrl.Event) {
		r.events = append(r.events, Event{Kind: ev.Kind, Addr: ev.Addr, Op: r.op})
	})
}

// BeginOp tags subsequent events with trace operation i.
func (r *Recorder) BeginOp(i int) { r.op = i }

// Events returns the recorded stream.
func (r *Recorder) Events() []Event { return r.events }

// EdgeKind classifies a happens-before edge.
type EdgeKind uint8

const (
	// EdgeLine orders two successive durable versions of one line: the
	// older version must be on media before the newer replaces it.
	EdgeLine EdgeKind = iota
	// EdgeEpoch orders a durable non-epoch (ADR) write before the next
	// epoch commit: the commit publishes metadata that assumes the
	// write already persisted, which is the ordering cc-NVM's
	// write-data-then-drain protocol depends on.
	EdgeEpoch
	// EdgeHold orders a held epoch entry before its closing commit: the
	// entry must not be durable until the end signal.
	EdgeHold
	// EdgeCommitChain orders consecutive epoch commits.
	EdgeCommitChain
)

// String names the edge kind for diagnostics and golden files.
func (k EdgeKind) String() string {
	switch k {
	case EdgeLine:
		return "line"
	case EdgeEpoch:
		return "epoch"
	case EdgeHold:
		return "hold"
	case EdgeCommitChain:
		return "commit-chain"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// Edge is one happens-before constraint between two events (indices
// into Graph.Events): From's durability transition precedes To's.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Graph is the persist-ordering graph of one recorded run.
type Graph struct {
	Events []Event
	Edges  []Edge
}

// Build derives the happens-before edges from an event stream in one
// O(n) pass (amortized over lines and epochs):
//
//   - EdgeLine: each durable event (write-accept or adr-flush) on a
//     line is ordered after the previous durable event on that line.
//   - EdgeEpoch: every write-accept since the last commit is ordered
//     before the next epoch-commit.
//   - EdgeHold: every epoch-hold of a window is ordered before the
//     commit that closes it.
//   - EdgeCommitChain: each epoch-commit is ordered after the previous
//     one.
//
// ADR flushes are the post-commit servicing of held entries; their
// durability point is the commit itself, so they join the line-version
// chains but do not open new epoch edges.
func Build(events []Event) *Graph {
	g := &Graph{Events: events}
	lastLine := map[mem.Addr]int{} // last durable event per line
	var sinceCommit []int          // durable accepts since the last commit
	var holds []int                // held entries of the open window
	lastCommit := -1
	for i, ev := range events {
		switch ev.Kind {
		case memctrl.EvWriteAccept:
			if j, ok := lastLine[ev.Addr]; ok {
				g.Edges = append(g.Edges, Edge{j, i, EdgeLine})
			}
			lastLine[ev.Addr] = i
			sinceCommit = append(sinceCommit, i)
		case memctrl.EvEpochHold:
			holds = append(holds, i)
		case memctrl.EvEpochCommit:
			for _, w := range sinceCommit {
				g.Edges = append(g.Edges, Edge{w, i, EdgeEpoch})
			}
			sinceCommit = sinceCommit[:0]
			for _, h := range holds {
				g.Edges = append(g.Edges, Edge{h, i, EdgeHold})
			}
			holds = holds[:0]
			if lastCommit >= 0 {
				g.Edges = append(g.Edges, Edge{lastCommit, i, EdgeCommitChain})
			}
			lastCommit = i
		case memctrl.EvADRFlush:
			if j, ok := lastLine[ev.Addr]; ok {
				g.Edges = append(g.Edges, Edge{j, i, EdgeLine})
			}
			lastLine[ev.Addr] = i
		}
	}
	return g
}

// Cuts reports whether crash point k (operations [0,k) executed)
// separates edge e: the source transition has happened, the sink has
// not.
func (g *Graph) Cuts(e Edge, k int) bool {
	return g.Events[e.From].Op < k && k <= g.Events[e.To].Op
}

// Cuttable reports whether any op-granular crash point separates e.
// Edges whose endpoints fire inside one trace operation (e.g. a data
// write and the drain the same WriteBack triggers) are invisible to the
// harness, whose crash points land between operations.
func (g *Graph) Cuttable(e Edge) bool {
	return g.Events[e.From].Op < g.Events[e.To].Op
}

// CuttableCount counts the edges some crash point can cut.
func (g *Graph) CuttableCount() int {
	n := 0
	for _, e := range g.Edges {
		if g.Cuttable(e) {
			n++
		}
	}
	return n
}

// CutSet returns the distinct cuttable-edge indices cut by the points.
func (g *Graph) CutSet(points []int) map[int]bool {
	cut := map[int]bool{}
	for ei, e := range g.Edges {
		for _, k := range points {
			if g.Cuts(e, k) {
				cut[ei] = true
				break
			}
		}
	}
	return cut
}

// EnumeratePoints selects up to budget crash points in [1, maxOp] by
// greedy set cover over the cuttable edges: each pick is the point
// cutting the most not-yet-cut edges (ties to the smallest point), and
// selection stops early once no candidate cuts a new edge — guided
// sweeps never spend cells on crash states equivalent to ones already
// scheduled. Deterministic for a given graph.
func (g *Graph) EnumeratePoints(budget, maxOp int) []int {
	if budget <= 0 || maxOp < 1 {
		return nil
	}
	// Candidate points: a cut set only changes where some edge starts
	// (From.Op+1) or stops (To.Op+1) being cut, so one candidate per
	// region boundary reaches every achievable cut set.
	seen := map[int]bool{}
	var cands []int
	addCand := func(k int) {
		if k >= 1 && k <= maxOp && !seen[k] {
			seen[k] = true
			cands = append(cands, k)
		}
	}
	cutBy := map[int][]int{} // candidate point -> cuttable edge indices
	var cuttable []int
	for ei, e := range g.Edges {
		if g.Cuttable(e) {
			cuttable = append(cuttable, ei)
			addCand(g.Events[e.From].Op + 1)
			addCand(g.Events[e.To].Op)
		}
	}
	if len(cuttable) == 0 {
		return nil
	}
	for _, k := range cands {
		for _, ei := range cuttable {
			if g.Cuts(g.Edges[ei], k) {
				cutBy[k] = append(cutBy[k], ei)
			}
		}
	}
	covered := map[int]bool{}
	var points []int
	for len(points) < budget {
		best, bestGain := 0, 0
		for _, k := range cands {
			gain := 0
			for _, ei := range cutBy[k] {
				if !covered[ei] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && k < best) {
				best, bestGain = k, gain
			}
		}
		if bestGain == 0 {
			break
		}
		points = append(points, best)
		for _, ei := range cutBy[best] {
			covered[ei] = true
		}
	}
	sortInts(points)
	return points
}

// EvenPoints returns n evenly spaced crash points over an ops-long
// trace — the random matrix's historical placement ((i+1)*ops/(n+1)) —
// for like-for-like coverage comparisons against guided enumeration.
func EvenPoints(n, ops int) []int {
	var pts []int
	for i := 0; i < n; i++ {
		k := (i + 1) * ops / (n + 1)
		if k < 1 {
			k = 1
		}
		if len(pts) == 0 || pts[len(pts)-1] != k {
			pts = append(pts, k)
		}
	}
	return pts
}

// sortInts is a tiny insertion sort; point lists are a handful long.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
