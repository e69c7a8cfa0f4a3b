package core

import (
	"fmt"
	"strings"

	"pgb/internal/datasets"
)

// FormatTypeAnalysis renders the "impact of graph dataset" analysis from
// §VI-A of the paper: best counts aggregated by graph *type* (the Table
// II taxonomy — social, web, academic, traffic, financial, technology,
// synthetic), showing which mechanism suits which domain.
func (r *Results) FormatTypeAnalysis() string {
	// dataset → type, restricted to datasets in this run (Run rejects
	// unknown dataset names, so every lookup succeeds)
	typeOf := map[string]string{}
	for _, ds := range r.Config.Datasets {
		spec, _ := datasets.ByName(ds)
		typeOf[ds] = spec.Type
	}
	var types []string
	seen := map[string]bool{}
	for _, ds := range r.Config.Datasets {
		if !seen[typeOf[ds]] {
			seen[typeOf[ds]] = true
			types = append(types, typeOf[ds])
		}
	}

	idx := r.index()
	counts := map[string]map[string]int{} // type → algorithm → wins
	for _, ds := range r.Config.Datasets {
		tp := typeOf[ds]
		if counts[tp] == nil {
			counts[tp] = map[string]int{}
		}
		for _, eps := range r.Config.Epsilons {
			for _, q := range r.Queries() {
				for _, w := range r.winners(idx, ds, eps, q) {
					counts[tp][w]++
				}
			}
		}
	}

	var sb strings.Builder
	sb.WriteString("Graph-type analysis — best counts aggregated by domain (Table II taxonomy)\n")
	fmt.Fprintf(&sb, "%-12s", "Type")
	for _, alg := range r.Config.Algorithms {
		fmt.Fprintf(&sb, " %10s", alg)
	}
	sb.WriteString("   best\n")
	for _, tp := range types {
		fmt.Fprintf(&sb, "%-12s", tp)
		bestAlg, bestC := "", -1
		for _, alg := range r.Config.Algorithms {
			c := counts[tp][alg]
			fmt.Fprintf(&sb, " %10d", c)
			if c > bestC {
				bestC = c
				bestAlg = alg
			}
		}
		fmt.Fprintf(&sb, "   %s\n", bestAlg)
	}
	return sb.String()
}
