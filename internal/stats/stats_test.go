package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgb/internal/graph"
	"pgb/internal/par"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(7)) }

// k4 returns the complete graph on 4 nodes.
func k4() *graph.Graph {
	return graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
}

// path5 returns the path 0-1-2-3-4.
func path5() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
}

// star returns a star with c leaves.
func star(c int) *graph.Graph {
	edges := make([]graph.Edge, c)
	for i := 0; i < c; i++ {
		edges[i] = graph.Edge{U: 0, V: int32(i + 1)}
	}
	return graph.FromEdges(c+1, edges)
}

func TestNumNodesCountsNonIsolated(t *testing.T) {
	g := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if v := NumNodes(g); v != 4 {
		t.Fatalf("NumNodes = %g, want 4 (non-isolated)", v)
	}
}

func TestNumEdges(t *testing.T) {
	if v := NumEdges(k4()); v != 6 {
		t.Fatalf("NumEdges(K4) = %g, want 6", v)
	}
}

func TestTrianglesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K4", k4(), 4},
		{"path", path5(), 0},
		{"star", star(5), 0},
		{"triangle", graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}), 1},
	}
	for _, c := range cases {
		if got := Triangles(c.g, 1, nil); got != c.want {
			t.Errorf("Triangles(%s) = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestAvgDegree(t *testing.T) {
	if v := AvgDegree(k4()); v != 3 {
		t.Fatalf("AvgDegree(K4) = %g, want 3", v)
	}
	if v := AvgDegree(graph.New(0)); v != 0 {
		t.Fatalf("AvgDegree(empty) = %g, want 0", v)
	}
}

func TestDegreeVariance(t *testing.T) {
	if v := DegreeVariance(k4()); v != 0 {
		t.Fatalf("DegreeVariance(K4) = %g, want 0 (regular)", v)
	}
	// star(3): degrees 3,1,1,1; mean 1.5; var = (2.25+0.25*3)/4 = 0.75
	if v := DegreeVariance(star(3)); math.Abs(v-0.75) > 1e-12 {
		t.Fatalf("DegreeVariance(star3) = %g, want 0.75", v)
	}
}

func TestDegreeDistribution(t *testing.T) {
	d := DegreeDistribution(star(3))
	// degrees: one node 3, three nodes 1 → P(1)=0.75, P(3)=0.25
	if math.Abs(d[1]-0.75) > 1e-12 || math.Abs(d[3]-0.25) > 1e-12 {
		t.Fatalf("distribution = %v", d)
	}
	sum := 0.0
	for _, p := range d {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distribution sums to %g", sum)
	}
}

func TestExactDistancesPath(t *testing.T) {
	ds := ExactDistances(path5(), 1, nil)
	if ds.Diameter != 4 {
		t.Fatalf("diameter = %g, want 4", ds.Diameter)
	}
	// avg shortest path of P5: Σd over ordered pairs / pairs = 2
	if math.Abs(ds.AvgPath-2) > 1e-12 {
		t.Fatalf("avg path = %g, want 2", ds.AvgPath)
	}
	sum := 0.0
	for _, p := range ds.Distribution {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distance distribution sums to %g", sum)
	}
}

func TestDistancesDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	ds := ExactDistances(g, 1, nil)
	if ds.Diameter != 1 {
		t.Fatalf("diameter = %g, want 1 (finite pairs only)", ds.Diameter)
	}
}

func TestSampledDistancesApproximatesExact(t *testing.T) {
	r := rng()
	// ring of 100 nodes: diameter 50, avg ~25
	edges := make([]graph.Edge, 100)
	for i := 0; i < 100; i++ {
		edges[i] = graph.Canon(int32(i), int32((i+1)%100))
	}
	g := graph.FromEdges(100, edges)
	exact := ExactDistances(g, 1, nil)
	sampled := SampledDistances(g, 30, r, 1, nil)
	if sampled.Diameter > exact.Diameter {
		t.Fatalf("sampled diameter %g exceeds exact %g", sampled.Diameter, exact.Diameter)
	}
	if math.Abs(sampled.AvgPath-exact.AvgPath) > 2 {
		t.Fatalf("sampled avg %g too far from exact %g", sampled.AvgPath, exact.AvgPath)
	}
}

func TestDistancesSwitchesModes(t *testing.T) {
	g := path5()
	exact := Distances(g, 10, 2, rng(), 1, nil)
	if exact.Diameter != 4 {
		t.Fatal("exact mode should be used under the limit")
	}
}

// gcc and acc answer Q10 and Q11 the way the profile does: from one
// TriangleProfile pass plus GlobalClusteringFrom.
func gcc(g *graph.Graph) float64 {
	tri, wedges, _ := TriangleProfile(g, 1, nil)
	return GlobalClusteringFrom(tri, wedges)
}

func acc(g *graph.Graph) float64 {
	_, _, a := TriangleProfile(g, 1, nil)
	return a
}

func TestGlobalClustering(t *testing.T) {
	if v := gcc(k4()); math.Abs(v-1) > 1e-12 {
		t.Fatalf("GCC(K4) = %g, want 1", v)
	}
	if v := gcc(star(5)); v != 0 {
		t.Fatalf("GCC(star) = %g, want 0", v)
	}
	// triangle plus pendant: 3 triangles*3=3... wedges: deg 2,2,3,1 →
	// 1+1+3+0 = 5; GCC = 3·1/5 = 0.6
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	if v := gcc(g); math.Abs(v-0.6) > 1e-12 {
		t.Fatalf("GCC = %g, want 0.6", v)
	}
}

func TestLocalAndAvgClustering(t *testing.T) {
	if v := acc(k4()); math.Abs(v-1) > 1e-12 {
		t.Fatalf("ACC(K4) = %g, want 1", v)
	}
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	cc := LocalClustering(g, 1, nil)
	// node 2 has neighbors {0,1,3}; edges among them: {0,1} → 2/6... C = 2·1/(3·2) = 1/3
	if math.Abs(cc[2]-1.0/3) > 1e-12 {
		t.Fatalf("C(2) = %g, want 1/3", cc[2])
	}
	if cc[3] != 0 {
		t.Fatalf("C(3) = %g, want 0 (degree 1)", cc[3])
	}
}

func TestModularityTwoCliques(t *testing.T) {
	// two triangles joined by one edge
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	})
	good := Modularity(g, []int{0, 0, 0, 1, 1, 1})
	bad := Modularity(g, []int{0, 1, 0, 1, 0, 1})
	if good <= bad {
		t.Fatalf("true partition modularity %g should beat scrambled %g", good, bad)
	}
	if good < 0.3 {
		t.Fatalf("two-clique modularity = %g, want > 0.3", good)
	}
}

func TestModularitySingleCommunityIsZero(t *testing.T) {
	g := k4()
	if v := Modularity(g, []int{0, 0, 0, 0}); math.Abs(v) > 1e-12 {
		t.Fatalf("single-community modularity = %g, want 0", v)
	}
}

func TestAssortativity(t *testing.T) {
	// star: perfectly disassortative → -1
	if v := Assortativity(star(5)); math.Abs(v+1) > 1e-9 {
		t.Fatalf("Assortativity(star) = %g, want -1", v)
	}
	// regular graph: degenerate denominator → 0 by convention
	if v := Assortativity(k4()); v != 0 {
		t.Fatalf("Assortativity(K4) = %g, want 0", v)
	}
}

func TestEigenvectorCentralityStar(t *testing.T) {
	evc := EigenvectorCentrality(star(4), 200, 1e-12)
	// center strictly larger than all leaves; leaves equal
	for i := 2; i <= 4; i++ {
		if math.Abs(evc[i]-evc[1]) > 1e-6 {
			t.Fatalf("leaf centralities differ: %v", evc)
		}
	}
	if evc[0] <= evc[1] {
		t.Fatalf("center %g not above leaf %g", evc[0], evc[1])
	}
	// L2 norm 1
	norm := 0.0
	for _, v := range evc {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("EVC norm² = %g, want 1", norm)
	}
}

func TestEigenvectorCentralityEmpty(t *testing.T) {
	evc := EigenvectorCentrality(graph.New(3), 10, 0)
	if len(evc) != 3 {
		t.Fatalf("len = %d", len(evc))
	}
}

// randomGraph builds a moderately sized graph with both clustered and
// heavy-tail structure so parallel shards are non-trivial.
func randomGraph(seed int64, n int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewEdgeSet(n, 0)
	for i := 0; i < 4*n; i++ {
		b.Add(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	// plant some triangles so the triangle kernel has real work
	for i := 0; i < n/2; i++ {
		u, v, w := int32(r.Intn(n)), int32(r.Intn(n)), int32(r.Intn(n))
		b.Add(u, v)
		b.Add(v, w)
		b.Add(u, w)
	}
	return b.Build()
}

// Parallel triangle counting and clustering must be bit-identical to
// serial at every worker count, with and without a shared budget
// (the DESIGN.md §2 kernel determinism contract). TriangleProfile must
// also match the separate serial kernels: the same triangle integer,
// Wedges, and the node-order mean of the local coefficients.
func TestTrianglesAndClusteringParallelMatchSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := randomGraph(seed, 300)
		wantTri := Triangles(g, 1, nil)
		wantCC := LocalClustering(g, 1, nil)
		wantWedges := Wedges(g)
		wantACC := 0.0
		for _, c := range wantCC {
			wantACC += c
		}
		wantACC /= float64(len(wantCC))
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []*par.Budget{nil, par.NewBudget(workers - 1)} {
				if got := Triangles(g, workers, budget); got != wantTri {
					t.Fatalf("seed %d workers %d: triangles %g != serial %g", seed, workers, got, wantTri)
				}
				cc := LocalClustering(g, workers, budget)
				for u := range cc {
					if cc[u] != wantCC[u] {
						t.Fatalf("seed %d workers %d: cc[%d] %g != serial %g", seed, workers, u, cc[u], wantCC[u])
					}
				}
				tri, wedges, acc := TriangleProfile(g, workers, budget)
				if tri != wantTri || wedges != wantWedges || acc != wantACC {
					t.Fatalf("seed %d workers %d: profile (%g, %g, %g) != serial (%g, %g, %g)",
						seed, workers, tri, wedges, acc, wantTri, wantWedges, wantACC)
				}
			}
		}
	}
}

// Parallel BFS sweeps (exact and sampled) must be bit-identical to
// serial at every worker count, including the distance distribution.
func TestDistancesParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		g := randomGraph(seed, 250)
		wantExact := ExactDistances(g, 1, nil)
		wantSampled := SampledDistances(g, 40, rand.New(rand.NewSource(99)), 1, nil)
		for _, workers := range []int{1, 2, 8} {
			got := ExactDistances(g, workers, nil)
			assertDistanceStatsEqual(t, "exact", workers, got, wantExact)
			got = SampledDistances(g, 40, rand.New(rand.NewSource(99)), workers, par.NewBudget(workers-1))
			assertDistanceStatsEqual(t, "sampled", workers, got, wantSampled)
		}
	}
}

func assertDistanceStatsEqual(t *testing.T, mode string, workers int, got, want DistanceStats) {
	t.Helper()
	if got.Diameter != want.Diameter || got.AvgPath != want.AvgPath {
		t.Fatalf("%s workers %d: (diam, avg) = (%g, %g), want (%g, %g)",
			mode, workers, got.Diameter, got.AvgPath, want.Diameter, want.AvgPath)
	}
	if len(got.Distribution) != len(want.Distribution) {
		t.Fatalf("%s workers %d: distribution length %d != %d", mode, workers, len(got.Distribution), len(want.Distribution))
	}
	for i := range got.Distribution {
		if got.Distribution[i] != want.Distribution[i] {
			t.Fatalf("%s workers %d: distribution[%d] %g != %g", mode, workers, i, got.Distribution[i], want.Distribution[i])
		}
	}
}

// property: GCC and ACC are in [0, 1] for arbitrary graphs.
func TestQuickClusteringBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(30)
		b := graph.NewEdgeSet(n, 0)
		for i := 0; i < 2*n; i++ {
			b.Add(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		c, a := gcc(g), acc(g)
		return c >= 0 && c <= 1 && a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// property: triangle count via forward intersection matches the
// trace-based O(n³) definition on small graphs.
func TestQuickTrianglesAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		b := graph.NewEdgeSet(n, 0)
		for i := 0; i < 3*n; i++ {
			b.Add(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		naive := 0.0
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				for w := v + 1; w < int32(n); w++ {
					if g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w) {
						naive++
					}
				}
			}
		}
		return Triangles(g, 1, nil) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// property: assortativity lies in [-1, 1].
func TestQuickAssortativityBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(25)
		b := graph.NewEdgeSet(n, 0)
		for i := 0; i < 2*n; i++ {
			b.Add(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		a := Assortativity(g)
		return a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
