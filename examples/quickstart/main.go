// Quickstart: generate a differentially private synthetic graph from one
// of the PGB benchmark datasets and compare it against the original on
// all fifteen graph queries.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pgb"
)

func main() {
	// Load the (simulated) Facebook social graph at 10% scale — fast
	// enough for a demo while keeping the social structure.
	g, err := pgb.Load(pgb.Source{Dataset: "Facebook", Scale: 0.1, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original graph: %d nodes, %d edges\n", g.N(), g.M())

	// Publish it under ε = 1 Edge-CDP with PrivGraph, the community-based
	// mechanism from USENIX Security 2023.
	syn, err := pgb.Generate("PrivGraph", g, 1.0, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic graph: %d nodes, %d edges (ε = 1.0)\n\n", syn.N(), syn.M())

	// Evaluate utility: the fifteen PGB queries with the paper's metrics.
	report := pgb.Compare(g, syn, 7)
	fmt.Println(report)

	fmt.Println("Lower error is better for every row except CD (NMI: higher is better).")
}
