package community_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo/privgraph"
	"pgb/internal/community"
	"pgb/internal/datasets"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

// louvainGolden pins Louvain's output — NumCommunities, the bits of
// Modularity and every label — over goldenGraphs. Any change to the
// local-move selection rule, the aggregation order or the compaction
// numbering moves it; a speedup of the kernel must not.
const louvainGolden = "3d75228fcd682adeabdb9d44483b54fdbc1d520eeb5a63a8cd09276584560022"

type goldenGraph struct {
	name string
	g    *graph.Graph
	seed int64 // Louvain's visit-order seed
}

// goldenGraphs is every dataset at scales 0.1 and 0.25 with two seeds,
// the randomized-response graphs PrivGraph builds at ε/3 for
// ε ∈ {0.1, 1, 10} on each scale-0.1 dataset, and random GNP and BA
// graphs.
func goldenGraphs() []goldenGraph {
	var out []goldenGraph
	for _, s := range datasets.All() {
		for _, scale := range []float64{0.1, 0.25} {
			for _, seed := range []int64{42, 7} {
				out = append(out, goldenGraph{fmt.Sprintf("%s/%g/%d", s.Name, scale, seed), s.Load(scale, seed), seed})
			}
		}
	}
	for _, s := range datasets.All() {
		g := s.Load(0.1, 42)
		for _, eps := range []float64{0.1, 1, 10} {
			rng := rand.New(rand.NewSource(int64(eps * 1000)))
			out = append(out, goldenGraph{fmt.Sprintf("rr/%s/%g", s.Name, eps), privgraph.RandomizeEdges(g, eps/3, rng), 3})
		}
	}
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 10; i++ {
		n := 20 + r.Intn(600)
		out = append(out, goldenGraph{fmt.Sprintf("gnp/%d", i), gen.GNP(n, (1+4*r.Float64())/float64(n), r), int64(i)})
		out = append(out, goldenGraph{fmt.Sprintf("ba/%d", i), gen.BarabasiAlbert(n, 1+r.Intn(4), r), int64(i)})
	}
	return out
}

func louvainDigest(res community.Result) []byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(res.NumCommunities))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.Modularity))
	h.Write(buf[:])
	for _, l := range res.Labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	return h.Sum(nil)
}

func TestLouvainGolden(t *testing.T) {
	h := sha256.New()
	for _, gg := range goldenGraphs() {
		d := louvainDigest(community.Louvain(gg.g, rand.New(rand.NewSource(gg.seed))))
		t.Logf("%-24s %x", gg.name, d[:8])
		h.Write(d)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != louvainGolden {
		t.Fatalf("Louvain golden digest = %s, want %s", got, louvainGolden)
	}
}
