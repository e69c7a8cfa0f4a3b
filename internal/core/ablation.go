package core

import (
	"fmt"
	"sort"
	"strings"

	"pgb/internal/algo"
	"pgb/internal/algo/dgg"
	"pgb/internal/algo/dpdk"
	"pgb/internal/algo/privgraph"
	"pgb/internal/algo/privhrg"
	"pgb/internal/algo/tmf"
	"pgb/internal/datasets"
	"pgb/internal/par"
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
// grid and renders the per-variant error series. Each (variant, ε)
// cell runs through runCell, seeded like a grid cell whose algorithm is
// the variant label.
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
	labels := make([]string, len(variants))
	for i, v := range variants {
		labels[i] = v.Label
	}
	cfg := Config{Algorithms: labels, Datasets: []string{spec.Name}, Queries: ablationQueries, Reps: reps, Scale: scale, Seed: seed}.withDefaults()
	cfg.budget = par.NewBudget(cfg.Workers - 1)
	g := spec.Load(cfg.Scale, cfg.Seed)
	truth := ComputeProfileCached(g, cfg.profileOptions(), cfg.Seed+1)
	res := &Results{Config: cfg}
	for _, v := range variants {
		for _, eps := range cfg.Epsilons {
			res.Cells = append(res.Cells, runCell(cfg, v.Generator, v.Label, spec.Name, g, truth, eps))
		}
	}
	title := fmt.Sprintf("Ablation %s on %s (n=%d, m=%d)", name, spec.Name, g.N(), g.M())
	return res.formatSeries(title, ablationQueries, cfg.Datasets), nil
}
