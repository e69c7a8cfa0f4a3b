// Package community implements Louvain modularity optimisation
// (Blondel et al. 2008). It serves two roles in PGB: the community
// detection query Q12 evaluated on true and synthetic graphs, and the
// non-private community phase inside the PrivGraph algorithm.
package community

import (
	"math"
	"math/rand"
	"slices"

	"pgb/internal/graph"
	"pgb/internal/stats"
)

// Result holds a detected partition: Labels[u] is the community of node u,
// with labels compacted to 0..NumCommunities-1.
type Result struct {
	Labels         []int
	NumCommunities int
	Modularity     float64
}

// weighted multigraph used for Louvain aggregation levels, in the same
// flat CSR layout as graph.Graph (off/nbr plus a parallel weight arena).
// The dominant Louvain cost is the neighbor-community scan in localMove;
// on the flat arenas it is a contiguous sweep with no per-node maps or
// allocations. Every weight is an exact integer held in a float64 (level
// 0 weights are 1, aggregation only sums them), so accumulation order
// can never change a value — the determinism lever the whole package
// leans on (DESIGN.md §2). Level 0 stores no weight arena at all (wt is
// nil and every weight is 1), which keeps 8 B per adjacency entry out of
// the hottest loop. No level stores a node as its own neighbor: the
// input graph is simple and aggregate folds intra-community weight into
// selfLoop.
type wgraph struct {
	n        int
	off      []int64   // len n+1
	nbr      []int32   // neighbor ids
	wt       []float64 // parallel to nbr; nil means every weight is 1
	selfLoop []float64 // intra weight (counted once per collapsed edge)
	totalW   float64   // sum of edge weights (each undirected edge once), incl. self loops
}

// weight is the weight of adjacency entry i.
func (w *wgraph) weight(i int64) float64 {
	if w.wt == nil {
		return 1
	}
	return w.wt[i]
}

func fromGraph(g *graph.Graph) *wgraph {
	n := g.N()
	w := &wgraph{n: n, off: make([]int64, n+1), selfLoop: make([]float64, n), totalW: float64(g.M())}
	for u := 0; u < n; u++ {
		w.off[u+1] = w.off[u] + int64(g.Degree(int32(u)))
	}
	w.nbr = make([]int32, w.off[n])
	for u := 0; u < n; u++ {
		copy(w.nbr[w.off[u]:w.off[u+1]], g.Neighbors(int32(u)))
	}
	return w
}

// Louvain runs the two-phase Louvain algorithm to convergence and returns
// the final partition on the original nodes. The node visit order is
// shuffled with rng, so different seeds may yield different (valid) local
// optima; passing a fixed seed makes detection deterministic.
func Louvain(g *graph.Graph, rng *rand.Rand) Result {
	n := g.N()
	if n == 0 {
		return Result{Labels: []int{}, NumCommunities: 0}
	}
	if g.M() == 0 {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return Result{Labels: labels, NumCommunities: n}
	}

	w := fromGraph(g)
	// mapping from original node -> current community label chain
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i)
	}
	remap := make([]int32, n) // compaction scratch, indexed by community id

	for level := 0; level < 64; level++ {
		comm, moved := localMove(w, rng)
		if !moved && level > 0 {
			break
		}
		k := compact(comm, remap)
		// update assignment of original nodes
		for i := range assign {
			assign[i] = comm[assign[i]]
		}
		if k == w.n {
			break // no aggregation happened
		}
		w = aggregate(w, comm, k)
		if !moved {
			break
		}
	}

	k := compact(assign, remap)
	labels := make([]int, n)
	for i, c := range assign {
		labels[i] = int(c)
	}
	return Result{
		Labels:         labels,
		NumCommunities: k,
		Modularity:     stats.Modularity(g, labels),
	}
}

// compact renumbers ids in place to 0..k-1 in order of first appearance
// and returns k. remap is scratch indexed by id, so it must be longer
// than the largest id; its contents on entry do not matter.
func compact(ids, remap []int32) int {
	for _, c := range ids {
		remap[c] = -1
	}
	k := int32(0)
	for i, c := range ids {
		if remap[c] < 0 {
			remap[c] = k
			k++
		}
		ids[i] = remap[c]
	}
	return int(k)
}

// localMove is Louvain phase one: greedily move nodes to the neighboring
// community with the highest modularity gain until no move improves.
// Neighbor-community weights accumulate into a reused scratch vector
// (weights are strictly positive, so nbw[c] == 0 means "not seen"), and
// bestCommunity picks the move with the same outcome as scanning the
// candidates in ascending id order, so tie-breaking — and hence the
// whole run — is deterministic.
func localMove(w *wgraph, rng *rand.Rand) ([]int32, bool) {
	n := w.n
	comm := make([]int32, n)
	commTotDeg := make([]float64, n) // Σ degree of nodes in community
	deg := make([]float64, n)
	maxDeg := int64(0) // most adjacency entries of any node
	for u := 0; u < n; u++ {
		comm[u] = int32(u)
		d := w.selfLoop[u] * 2
		for i := w.off[u]; i < w.off[u+1]; i++ {
			d += w.weight(i)
		}
		deg[u] = d
		commTotDeg[u] = d
		maxDeg = max(maxDeg, w.off[u+1]-w.off[u])
	}
	m2 := 2 * w.totalW
	if m2 == 0 {
		return comm, false
	}

	nbw := make([]float64, n)        // weight from u to community c, zeroed after each node
	candBuf := make([]int32, maxDeg) // communities touched for the current node
	order := rng.Perm(n)
	movedAny := false
	for pass := 0; pass < 32; pass++ {
		movedThisPass := false
		for _, u := range order {
			cu := comm[u]
			// Every neighbor's community is stored, and the cursor only
			// advances on a first touch: a conditional move instead of a
			// branch the random community ids would mispredict.
			k := 0
			lo, hi := w.off[u], w.off[u+1]
			for j, v := range w.nbr[lo:hi] {
				c := comm[v]
				candBuf[k] = c
				if nbw[c] == 0 {
					k++
				}
				nbw[c] += w.weight(lo + int64(j))
			}
			cands := candBuf[:k]
			// remove u from its community
			commTotDeg[cu] -= deg[u]
			baseGain := nbw[cu] - commTotDeg[cu]*deg[u]/m2
			bestC := bestCommunity(cands, nbw, commTotDeg, deg[u], m2, baseGain, cu)
			for _, c := range cands {
				nbw[c] = 0
			}
			comm[u] = bestC
			commTotDeg[bestC] += deg[u]
			if bestC != cu {
				movedThisPass = true
				movedAny = true
			}
		}
		if !movedThisPass {
			break
		}
	}
	return comm, movedAny
}

// bestCommunity returns the community a node of degree du moves to:
// the outcome of scanning cands in ascending id order and keeping the
// first candidate whose gain x = (nbw[c] − commTotDeg[c]·du/m2) −
// baseGain beats the running best (initially 0, staying in cu) by more
// than 1e-12.
//
// Each x is computed independently, so one unsorted pass tracks top
// (the largest x), topC (the smallest id with x == top) and second (the
// largest x strictly below top). If top does not beat 0 by 1e-12, no
// candidate ever does and the node stays in cu. If top beats second by
// more than 1e-12, the ascending scan provably ends at topC: rounded
// addition is monotone, so every running best before topC (0 or some
// x ≤ second) is beaten by top, and no later x ≤ top beats top+1e-12.
// Otherwise near-ties exist, and the function sorts cands and runs the
// ascending scan itself; that fallback is rare. cands may be reordered.
func bestCommunity(cands []int32, nbw, commTotDeg []float64, du, m2, baseGain float64, cu int32) int32 {
	top, second := math.Inf(-1), math.Inf(-1)
	topC := cu
	for _, c := range cands {
		x := (nbw[c] - commTotDeg[c]*du/m2) - baseGain
		switch {
		case x > top:
			second, top, topC = top, x, c
		case x == top:
			topC = min(topC, c)
		case x > second:
			second = x
		}
	}
	if !(top > 1e-12) {
		return cu
	}
	if top > second+1e-12 {
		return topC
	}
	slices.Sort(cands)
	bestC, bestGain := cu, 0.0
	for _, c := range cands {
		if x := (nbw[c] - commTotDeg[c]*du/m2) - baseGain; x > bestGain+1e-12 {
			bestGain = x
			bestC = c
		}
	}
	return bestC
}

// aggregate is Louvain phase two: collapse each community into a super
// node, preserving edge weights and intra-community weight as self loops.
// Members are visited in ascending node order per community and the super
// adjacency is emitted in sorted community order, keeping the output a
// pure function of (w, comm).
func aggregate(w *wgraph, comm []int32, k int) *wgraph {
	out := &wgraph{n: k, selfLoop: make([]float64, k), totalW: w.totalW}

	// counting-sort nodes by community
	bucketOff := make([]int, k+1)
	for _, c := range comm {
		bucketOff[c+1]++
	}
	for c := 0; c < k; c++ {
		bucketOff[c+1] += bucketOff[c]
	}
	members := make([]int32, w.n)
	pos := append([]int(nil), bucketOff[:k]...)
	for u := 0; u < w.n; u++ {
		c := comm[u]
		members[pos[c]] = int32(u)
		pos[c]++
	}

	nbw := make([]float64, k)
	var cands []int32
	off := make([]int64, 1, k+1)
	var nbr []int32
	var wts []float64
	for cu := range int32(k) {
		cands = cands[:0]
		for _, u := range members[bucketOff[cu]:bucketOff[cu+1]] {
			out.selfLoop[cu] += w.selfLoop[u]
			for i := w.off[u]; i < w.off[u+1]; i++ {
				v := w.nbr[i]
				cv := comm[v]
				if cv == cu {
					if u < v {
						out.selfLoop[cu] += w.weight(i)
					}
				} else {
					if nbw[cv] == 0 {
						cands = append(cands, cv)
					}
					nbw[cv] += w.weight(i)
				}
			}
		}
		slices.Sort(cands)
		for _, cv := range cands {
			nbr = append(nbr, cv)
			wts = append(wts, nbw[cv])
			nbw[cv] = 0
		}
		off = append(off, int64(len(nbr)))
	}
	out.off, out.nbr, out.wt = off, nbr, wts
	return out
}
