package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// fromEdgesSorted is the sort-based CSR construction FromEdges replaced:
// count, scatter, per-segment sort, in-place dedup. It is the byte-level
// reference for FromEdges' offset and neighbor arrays.
func fromEdgesSorted(n int, edges []Edge) *Graph {
	if n < 0 {
		n = 0
	}
	keep := func(e Edge) bool {
		return e.U != e.V && e.U >= 0 && e.V >= 0 && int(e.U) < n && int(e.V) < n
	}
	off := make([]int64, n+1)
	for _, e := range edges {
		if keep(e) {
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	nbr := make([]int32, off[n])
	pos := make([]int64, n)
	copy(pos, off[:n])
	for _, e := range edges {
		if keep(e) {
			nbr[pos[e.U]] = e.V
			pos[e.U]++
			nbr[pos[e.V]] = e.U
			pos[e.V]++
		}
	}
	w := int64(0)
	for u := 0; u < n; u++ {
		seg := nbr[off[u]:off[u+1]]
		slices.Sort(seg)
		start := w
		prev := int32(-1)
		for _, v := range seg {
			if v != prev {
				nbr[w] = v
				w++
				prev = v
			}
		}
		off[u] = start
	}
	off[n] = w
	return &Graph{n: n, m: int(w / 2), off: off, nbr: nbr[:w:w]}
}

// sameCSR reports whether two graphs have identical node and edge counts
// and byte-identical offset and neighbor arrays, capacity included.
func sameCSR(a, b *Graph) bool {
	return a.n == b.n && a.m == b.m &&
		slices.Equal(a.off, b.off) && slices.Equal(a.nbr, b.nbr) &&
		cap(a.nbr) == cap(b.nbr)
}

// TestFromEdgesMatchesSortedConstruction: FromEdges' ordered second
// scatter yields exactly the arrays of the sort-based construction, on
// edge lists with self-loops, reversed and repeated pairs, out-of-range
// endpoints, and on dense lists where most pairs repeat.
func TestFromEdgesMatchesSortedConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(300)
		k := rng.Intn(8*n + 1)
		if trial%10 == 0 {
			k = n * n // dense: most pairs appear several times
		}
		edges := make([]Edge, k)
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(n+4) - 2), V: int32(rng.Intn(n+4) - 2)}
		}
		if g, ref := FromEdges(n, edges), fromEdgesSorted(n, edges); !sameCSR(g, ref) {
			t.Fatalf("trial %d (n=%d, %d edges): FromEdges arrays differ from the sort-based construction", trial, n, k)
		}
	}
	if g, ref := FromEdges(-1, nil), fromEdgesSorted(-1, nil); !sameCSR(g, ref) {
		t.Fatal("FromEdges(-1, nil) differs from the sort-based construction")
	}
}

// edgeSetRef is the map-backed reference for EdgeSet: the same drop
// rules over a map[[2]int32]bool, plus the insertion-ordered list.
type edgeSetRef struct {
	n     int
	set   map[[2]int32]bool
	edges []Edge
}

func (r *edgeSetRef) has(u, v int32) bool {
	e := Canon(u, v)
	return r.set[[2]int32{e.U, e.V}]
}

func (r *edgeSetRef) add(u, v int32) bool {
	if u == v || u < 0 || v < 0 || int(u) >= r.n || int(v) >= r.n || r.has(u, v) {
		return false
	}
	e := Canon(u, v)
	r.set[[2]int32{e.U, e.V}] = true
	r.edges = append(r.edges, e)
	return true
}

// checkEdgeSetOps drives an EdgeSet with capHint 0 and the reference
// through the same operations, three bytes each: an opcode byte (odd
// adds, even probes) and two endpoint bytes, offset by -2 so negative
// and too-large endpoints occur. Every return value and M must agree
// after each step; at the end the edge order and the built graph's
// fingerprint must too.
func checkEdgeSetOps(t *testing.T, n int, data []byte) {
	t.Helper()
	s := NewEdgeSet(n, 0)
	ref := &edgeSetRef{n: n, set: map[[2]int32]bool{}}
	for i := 0; i+2 < len(data); i += 3 {
		u, v := int32(data[i+1])-2, int32(data[i+2])-2
		if data[i]%2 == 1 {
			if got, want := s.Add(u, v), ref.add(u, v); got != want {
				t.Fatalf("op %d: Add(%d, %d) = %v, reference %v", i/3, u, v, got, want)
			}
		} else if got, want := s.Has(u, v), ref.has(u, v); got != want {
			t.Fatalf("op %d: Has(%d, %d) = %v, reference %v", i/3, u, v, got, want)
		}
		if s.M() != len(ref.edges) {
			t.Fatalf("op %d: M = %d, reference %d", i/3, s.M(), len(ref.edges))
		}
	}
	if !slices.Equal(s.Edges(), ref.edges) {
		t.Fatal("edge order differs from the reference insertion order")
	}
	b := newRefBuilder(n)
	for _, e := range ref.edges {
		b.add(e.U, e.V)
	}
	g := s.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("built graph fails invariants: %v", err)
	}
	if g.Fingerprint() != b.build().Fingerprint() {
		t.Fatal("built graph's fingerprint differs from the reference")
	}
}
