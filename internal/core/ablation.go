package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pgb/internal/algo"
	"pgb/internal/algo/dgg"
	"pgb/internal/algo/dpdk"
	"pgb/internal/algo/privgraph"
	"pgb/internal/algo/privhrg"
	"pgb/internal/algo/tmf"
	"pgb/internal/datasets"
)

// AblationVariant is one configuration of an algorithm under ablation.
type AblationVariant struct {
	Label     string
	Generator algo.Generator
}

// Ablations returns the design-choice ablations called out in DESIGN.md
// §7, keyed by ablation name.
func Ablations() map[string][]AblationVariant {
	return map[string][]AblationVariant{
		// TmF: linear-cost high-pass filter vs naive O(n²) matrix noise —
		// same mechanism, so utility should match while cost diverges.
		"tmf-filter": {
			{Label: "filter", Generator: tmf.Default()},
			{Label: "naive", Generator: tmf.New(tmf.Options{NaiveFullMatrix: true})},
		},
		// DP-dK: smooth vs global sensitivity calibration.
		"dpdk-sensitivity": {
			{Label: "smooth", Generator: dpdk.Default()},
			{Label: "global", Generator: dpdk.New(dpdk.Options{GlobalSensitivity: true})},
		},
		// DP-dK: dK-1 vs dK-2 representation.
		"dpdk-order": {
			{Label: "dK-2", Generator: dpdk.Default()},
			{Label: "dK-1", Generator: dpdk.New(dpdk.Options{Model: dpdk.DK1})},
		},
		// DGG: BTER vs plain Chung-Lu construction.
		"dgg-construction": {
			{Label: "bter", Generator: dgg.Default()},
			{Label: "chunglu", Generator: dgg.New(dgg.Options{UseChungLu: true})},
		},
		// PrivGraph: budget split across the three phases.
		"privgraph-split": {
			{Label: "equal", Generator: privgraph.Default()},
			{Label: "community-heavy", Generator: privgraph.New(privgraph.Options{Split: [3]float64{0.5, 0.25, 0.25}})},
			{Label: "degree-heavy", Generator: privgraph.New(privgraph.Options{Split: [3]float64{0.25, 0.5, 0.25}})},
		},
		// PrivHRG: MCMC chain length.
		"privhrg-mcmc": {
			{Label: "steps=2k", Generator: privhrg.New(privhrg.Options{MCMCSteps: 2000})},
			{Label: "steps=10k", Generator: privhrg.New(privhrg.Options{MCMCSteps: 10000})},
			{Label: "steps=40k", Generator: privhrg.New(privhrg.Options{MCMCSteps: 40000})},
		},
	}
}

// AblationQueries are the queries each ablation is judged on.
var ablationQueries = []QueryID{QNumEdges, QTriangles, QDegreeDistribution, QAvgClustering, QCommunityDetection}

// RunAblation executes one named ablation on one dataset across the ε
// grid and renders the per-variant error series.
func RunAblation(name, dataset string, scale float64, reps int, seed int64) (string, error) {
	variants, ok := Ablations()[name]
	if !ok {
		names := make([]string, 0, len(Ablations()))
		for k := range Ablations() {
			names = append(names, k)
		}
		sort.Strings(names)
		return "", fmt.Errorf("core: unknown ablation %q (available: %s)", name, strings.Join(names, ", "))
	}
	spec, err := datasets.ByName(dataset)
	if err != nil {
		return "", err
	}
	g := spec.Load(scale, seed)
	truth := ComputeProfileCached(g, ProfileOptions{Queries: ablationQueries}, seed+1)

	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation %s on %s (n=%d, m=%d)\n", name, dataset, g.N(), g.M())
	for _, q := range ablationQueries {
		fmt.Fprintf(&sb, "\n[%s (%s)]\n%-16s", q.String(), q.Metric(), "eps:")
		for _, e := range Epsilons() {
			fmt.Fprintf(&sb, " %9g", e)
		}
		sb.WriteByte('\n')
		for _, v := range variants {
			fmt.Fprintf(&sb, "%-16s", v.Label)
			for _, e := range Epsilons() {
				sum, n := 0.0, 0
				for rep := 0; rep < reps; rep++ {
					genSeed := seed + int64(rep)*101 + int64(e*1000)
					r := rand.New(rand.NewSource(genSeed))
					syn, err := v.Generator.Generate(g, e, r, algo.Params{})
					if err != nil {
						continue
					}
					prof := ComputeProfileSeeded(syn, ProfileOptions{Queries: ablationQueries}, SubSeed(genSeed, 1))
					val, _ := Score(q, truth, prof)
					sum += val
					n++
				}
				if n == 0 {
					fmt.Fprintf(&sb, " %9s", "-")
				} else {
					fmt.Fprintf(&sb, " %9.4f", sum/float64(n))
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nil
}
