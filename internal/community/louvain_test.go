package community

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pgb/internal/gen"
	"pgb/internal/graph"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(11)) }

func TestLouvainTwoCliques(t *testing.T) {
	// two K5s joined by a single edge: Louvain must find the two cliques
	var edges []graph.Edge
	for a := int32(0); a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			edges = append(edges, graph.Edge{U: a, V: b})
			edges = append(edges, graph.Edge{U: a + 5, V: b + 5})
		}
	}
	edges = append(edges, graph.Edge{U: 4, V: 5})
	g := graph.FromEdges(10, edges)
	res := Louvain(g, rng())
	if res.NumCommunities != 2 {
		t.Fatalf("communities = %d, want 2 (labels %v)", res.NumCommunities, res.Labels)
	}
	for i := 1; i < 5; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("clique 1 split: %v", res.Labels)
		}
		if res.Labels[i+5] != res.Labels[5] {
			t.Fatalf("clique 2 split: %v", res.Labels)
		}
	}
	if res.Labels[0] == res.Labels[5] {
		t.Fatalf("cliques merged: %v", res.Labels)
	}
	if res.Modularity < 0.3 {
		t.Fatalf("modularity = %g, want > 0.3", res.Modularity)
	}
}

func TestLouvainEmptyAndEdgeless(t *testing.T) {
	res := Louvain(graph.New(0), rng())
	if res.NumCommunities != 0 {
		t.Fatalf("empty graph: %d communities", res.NumCommunities)
	}
	res = Louvain(graph.New(4), rng())
	if res.NumCommunities != 4 {
		t.Fatalf("edgeless graph: %d communities, want 4 singletons", res.NumCommunities)
	}
}

func TestLouvainPlantedPartition(t *testing.T) {
	r := rng()
	g := gen.PlantedPartition(120, 4, 0.5, 0.01, r)
	res := Louvain(g, r)
	if res.NumCommunities < 3 || res.NumCommunities > 8 {
		t.Fatalf("communities = %d, want near 4", res.NumCommunities)
	}
	if res.Modularity < 0.4 {
		t.Fatalf("modularity = %g, want > 0.4", res.Modularity)
	}
}

func TestLouvainDeterministicForSeed(t *testing.T) {
	g := gen.PlantedPartition(80, 4, 0.5, 0.02, rng())
	a := Louvain(g, rand.New(rand.NewSource(99)))
	b := Louvain(g, rand.New(rand.NewSource(99)))
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("Louvain not deterministic for fixed seed")
		}
	}
}

func TestLouvainLabelsCompact(t *testing.T) {
	g := gen.PlantedPartition(60, 3, 0.6, 0.02, rng())
	res := Louvain(g, rng())
	seen := map[int]bool{}
	maxL := 0
	for _, l := range res.Labels {
		seen[l] = true
		if l > maxL {
			maxL = l
		}
	}
	if len(seen) != res.NumCommunities || maxL != res.NumCommunities-1 {
		t.Fatalf("labels not compact: %d distinct, max %d, reported %d",
			len(seen), maxL, res.NumCommunities)
	}
}

// property: Louvain labels are valid (in range) and modularity is in
// [-0.5, 1] for arbitrary random graphs.
func TestQuickLouvainValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		b := graph.NewEdgeSet(n, 0)
		for i := 0; i < 2*n; i++ {
			b.Add(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		res := Louvain(g, r)
		if len(res.Labels) != n {
			return false
		}
		for _, l := range res.Labels {
			if l < 0 || l >= res.NumCommunities {
				return false
			}
		}
		return res.Modularity >= -0.5-1e-9 && res.Modularity <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// property: Louvain's reported modularity is never worse than the trivial
// single-community partition (which scores ~0) minus tolerance.
func TestQuickLouvainBeatsTrivial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gen.PlantedPartition(40+r.Intn(40), 3, 0.4, 0.02, r)
		if g.M() == 0 {
			return true
		}
		res := Louvain(g, r)
		return res.Modularity >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ascendingScan is the reference selection rule bestCommunity must
// reproduce: visit the candidates in ascending id order and keep the
// first whose gain beats the running best (initially 0, staying in cu)
// by more than 1e-12.
func ascendingScan(cands []int32, nbw, commTotDeg []float64, du, m2, baseGain float64, cu int32) int32 {
	bestC, bestGain := cu, 0.0
	for _, c := range slices.Sorted(slices.Values(cands)) {
		gain := nbw[c] - commTotDeg[c]*du/m2
		if gain-baseGain > bestGain+1e-12 {
			bestGain = gain - baseGain
			bestC = c
		}
	}
	return bestC
}

// selectionCase is one bestCommunity input. With commTotDeg[c] = 0,
// baseGain = 0, du = 1 and m2 = 1 a candidate's gain is exactly nbw[c],
// which lets a case place gains at chosen bit patterns.
type selectionCase struct {
	cands           []int32
	nbw, commTotDeg []float64
	du, m2, base    float64
	cu              int32
}

// exactGains builds a case whose candidate gains are exactly xs.
func exactGains(r *rand.Rand, xs []float64) selectionCase {
	const ids = 64
	sc := selectionCase{nbw: make([]float64, ids), commTotDeg: make([]float64, ids), du: 1, m2: 1}
	for _, i := range r.Perm(ids)[:len(xs)] {
		sc.cands = append(sc.cands, int32(i))
	}
	for i, c := range sc.cands {
		sc.nbw[c] = xs[i]
	}
	sc.cu = int32(r.Intn(ids))
	if slices.Contains(sc.cands, sc.cu) {
		sc.nbw[sc.cu] = 0 // staying put gains exactly 0
	}
	return sc
}

// nextafter steps x by k ulps (k may be negative).
func nextafter(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// selectionCases draws one case of each shape: exact ties at the top,
// near-ties around the 1e-12 margin built from ulp steps, all gains at
// or below 1e-12, and integer weights as localMove sees them (cu among
// the candidates about half the time, small ranges so ties are common).
func selectionCases(r *rand.Rand) []selectionCase {
	top := r.Float64()
	var out []selectionCase

	ties := []float64{top, top, r.Float64() * top}
	for i := r.Intn(3); i > 0; i-- {
		ties = append(ties, top)
	}
	out = append(out, exactGains(r, ties))

	margin := top - (top - 1e-12) // the top−second gap at which the rule flips
	near := []float64{top, nextafter(top-margin, r.Intn(9)-4), nextafter(top, -r.Intn(5))}
	for i := r.Intn(4); i > 0; i-- {
		near = append(near, r.Float64()*top)
	}
	out = append(out, exactGains(r, near))

	var low []float64
	for i := 1 + r.Intn(6); i > 0; i-- {
		switch r.Intn(4) {
		case 0:
			low = append(low, 1e-12)
		case 1:
			low = append(low, nextafter(1e-12, -r.Intn(4)))
		case 2:
			low = append(low, 0)
		default:
			low = append(low, -r.Float64())
		}
	}
	if r.Intn(2) == 0 {
		low = append(low, nextafter(1e-12, 1)) // the smallest gain that moves
	}
	out = append(out, exactGains(r, low))

	const ids = 32
	sc := selectionCase{nbw: make([]float64, ids), commTotDeg: make([]float64, ids)}
	for _, i := range r.Perm(ids)[:1+r.Intn(8)] {
		sc.cands = append(sc.cands, int32(i))
		sc.nbw[i] = float64(1 + r.Intn(3))
	}
	for c := range sc.commTotDeg {
		sc.commTotDeg[c] = float64(r.Intn(6))
	}
	sc.cu = int32(r.Intn(ids))
	if r.Intn(2) == 0 && !slices.Contains(sc.cands, sc.cu) {
		sc.cands = append(sc.cands, sc.cu)
		sc.nbw[sc.cu] = float64(1 + r.Intn(3))
	}
	sc.du = float64(1 + r.Intn(4))
	sc.m2 = float64(40 + r.Intn(60))
	sc.base = sc.nbw[sc.cu] - sc.commTotDeg[sc.cu]*sc.du/sc.m2
	return append(out, sc)
}

// property: the one-pass selection picks the same community as the
// sorted ascending scan on every candidate set, ties and near-ties
// included.
func TestBestCommunityMatchesAscendingScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	moved, stayed := 0, 0
	for i := 0; i < 20000; i++ {
		for _, sc := range selectionCases(r) {
			want := ascendingScan(sc.cands, sc.nbw, sc.commTotDeg, sc.du, sc.m2, sc.base, sc.cu)
			got := bestCommunity(slices.Clone(sc.cands), sc.nbw, sc.commTotDeg, sc.du, sc.m2, sc.base, sc.cu)
			if got != want {
				t.Fatalf("case %d: bestCommunity = %d, ascending scan = %d (cands %v, cu %d)", i, got, want, sc.cands, sc.cu)
			}
			if got == sc.cu {
				stayed++
			} else {
				moved++
			}
		}
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("cases never exercised both outcomes: %d moved, %d stayed", moved, stayed)
	}
}
