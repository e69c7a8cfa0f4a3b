package pgb_test

import (
	"fmt"

	"pgb"
)

// ExampleGenerate shows the one-call path from a benchmark dataset to a
// differentially private synthetic graph.
func ExampleGenerate() {
	g, _ := pgb.Load(pgb.Source{Dataset: "BA", Scale: 0.02, Seed: 42}) // 2%-scale Barabási-Albert
	syn, err := pgb.Generate("DGG", g, 5.0, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println("nodes preserved:", syn.N() == g.N())
	// Output:
	// nodes preserved: true
}

// ExampleCompare scores a synthetic graph on the fifteen PGB queries.
func ExampleCompare() {
	g, _ := pgb.Load(pgb.Source{Dataset: "ER", Scale: 0.02, Seed: 42})
	syn, _ := pgb.Generate("TmF", g, 10, 7)
	report := pgb.Compare(g, syn, 7)
	fmt.Println("queries scored:", len(report.Rows))
	fmt.Println("first query:", report.Rows[0].Query, report.Rows[0].Metric)
	// Output:
	// queries scored: 15
	// first query: |V| RE
}

// ExampleNewGraphFromEdges publishes a caller-provided graph.
func ExampleNewGraphFromEdges() {
	g := pgb.NewGraphFromEdges(4, []pgb.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	syn, _ := pgb.Generate("PrivGraph", g, 2, 3)
	fmt.Println("nodes:", syn.N())
	// Output:
	// nodes: 4
}

// ExampleAlgorithms lists the benchmark's mechanism element M.
func ExampleAlgorithms() {
	for _, name := range pgb.Algorithms() {
		fmt.Println(name)
	}
	// Output:
	// DP-dK
	// TmF
	// PrivSKG
	// PrivHRG
	// PrivGraph
	// DGG
}
