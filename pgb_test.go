package pgb_test

import (
	"math/rand"
	"strings"
	"testing"

	"pgb"
)

func TestPublicSurfaces(t *testing.T) {
	if len(pgb.Algorithms()) != 6 {
		t.Fatalf("Algorithms() = %v", pgb.Algorithms())
	}
	if len(pgb.Datasets()) != 8 {
		t.Fatalf("Datasets() = %v", pgb.Datasets())
	}
	if len(pgb.Epsilons()) != 6 {
		t.Fatalf("Epsilons() = %v", pgb.Epsilons())
	}
}

func TestLoadGenerateCompare(t *testing.T) {
	g, err := pgb.Load(pgb.Source{Dataset: "Facebook", Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := pgb.Generate("PrivGraph", g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != g.N() {
		t.Fatalf("node universe changed: %d vs %d", syn.N(), g.N())
	}
	rep := pgb.Compare(g, syn, 7)
	if len(rep.Rows) != 15 {
		t.Fatalf("report rows = %d", len(rep.Rows))
	}
	s := rep.String()
	for _, want := range []string{"|E|", "GCC", "CD", "EVC"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %s:\n%s", want, s)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	g, _ := pgb.Load(pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 1})
	if _, err := pgb.Generate("nope", g, 1, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := pgb.Generate("TmF", g, -1, 1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := pgb.Load(pgb.Source{Dataset: "nope", Scale: 1, Seed: 1}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestNewGraphFromEdges(t *testing.T) {
	g := pgb.NewGraphFromEdges(3, []pgb.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	syn, err := pgb.Generate("DGG", g, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != 3 {
		t.Fatal("custom graph not accepted by Generate")
	}
}

func TestRegisterQueryAndCompareQueries(t *testing.T) {
	id, err := pgb.RegisterQuery(pgb.CustomQuery{
		Symbol:  "PubMaxDeg",
		Compute: func(g *pgb.Graph, _ *rand.Rand) float64 { return float64(g.MaxDegree()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pgb.RegisterQuery(pgb.CustomQuery{Symbol: "NoCompute"}); err == nil {
		t.Fatal("RegisterQuery accepted a query without Compute")
	}
	found := false
	for _, sym := range pgb.Queries() {
		if sym == "PubMaxDeg" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Queries() missing registered symbol: %v", pgb.Queries())
	}

	g, err := pgb.Load(pgb.Source{Dataset: "BA", Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := pgb.Generate("DGG", g, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep := pgb.CompareQueries(g, syn, 7, []pgb.QueryID{id})
	if len(rep.Rows) != 1 || rep.Rows[0].Query != "PubMaxDeg" {
		t.Fatalf("custom-query report: %+v", rep.Rows)
	}
	if rep.Rows[0].TrueValue != float64(g.MaxDegree()) {
		t.Fatalf("TrueValue = %g, want %d", rep.Rows[0].TrueValue, g.MaxDegree())
	}

	// Similarity-style custom queries must carry HigherBetter through to
	// reports (and so to best-count rankings).
	simID, err := pgb.RegisterQuery(pgb.CustomQuery{
		Symbol:       "PubSim",
		Metric:       "SIM",
		HigherBetter: true,
		Compute:      func(g *pgb.Graph, _ *rand.Rand) float64 { return float64(g.M()) },
		Score: func(truth, syn float64) float64 {
			if truth == 0 {
				return 0
			}
			return syn / truth
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if row := pgb.CompareQueries(g, syn, 7, []pgb.QueryID{simID}).Rows[0]; !row.HigherBetter || row.Metric != "SIM" {
		t.Fatalf("higher-better custom query row: %+v", row)
	}
	if _, err := pgb.RegisterQuery(pgb.CustomQuery{
		Symbol:       "PubSimBad",
		HigherBetter: true,
		Compute:      func(g *pgb.Graph, _ *rand.Rand) float64 { return 0 },
	}); err == nil {
		t.Fatal("HigherBetter without Score accepted")
	}

	// Compare must be deterministic in seed (independent sub-seeded
	// profiles, memoized truth side).
	a := pgb.Compare(g, syn, 7)
	b := pgb.Compare(g, syn, 7)
	for i := range a.Rows {
		if a.Rows[i].Error != b.Rows[i].Error {
			t.Fatalf("Compare not deterministic at row %d", i)
		}
	}
}

func TestRunBenchmarkSmall(t *testing.T) {
	res, err := pgb.RunBenchmark(pgb.BenchmarkConfig{
		Algorithms: []string{"TmF"},
		Datasets:   []string{"BA"},
		Epsilons:   []float64{1},
		Reps:       1,
		Scale:      0.02,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].Err != nil {
		t.Fatalf("cells: %+v", res.Cells)
	}
	if !strings.Contains(res.FormatTable7(), "TmF") {
		t.Fatal("table formatting broken through facade")
	}
}
