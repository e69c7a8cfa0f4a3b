package main

import (
	"flag"
	"fmt"
	"math/rand"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/datasets"
)

// cmdReport prints the extended multi-metric utility report for one
// (algorithm, dataset, ε) cell.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	algName := fs.String("alg", "PrivGraph", "algorithm name")
	dsName := fs.String("dataset", "Facebook", "dataset name")
	eps := fs.Float64("eps", 1.0, "privacy budget")
	scale := fs.Float64("scale", 0.1, "dataset size factor")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := datasets.ByName(*dsName)
	if err != nil {
		return err
	}
	g := spec.Load(*scale, *seed)
	alg, err := core.NewAlgorithm(*algName)
	if err != nil {
		return err
	}
	truth := core.ComputeProfileCached(g, core.ProfileOptions{}, *seed+1)
	rng := rand.New(rand.NewSource(*seed + 2))
	syn, err := alg.Generate(g, *eps, rng, algo.Params{})
	if err != nil {
		return err
	}
	prof := core.ComputeProfileSeeded(syn, core.ProfileOptions{}, core.SubSeed(*seed+2, 1))
	fmt.Printf("%s on %s (n=%d, m=%d → m=%d) at eps=%g\n\n",
		*algName, *dsName, g.N(), g.M(), syn.M(), *eps)
	fmt.Print(core.FormatExtended(core.ExtendedCompare(truth, prof)))
	return nil
}

// cmdAblation runs one of the DESIGN.md §7 design-choice ablations.
func cmdAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	name := fs.String("name", "dgg-construction", "ablation name")
	dsName := fs.String("dataset", "Facebook", "dataset name")
	scale := fs.Float64("scale", 0.1, "dataset size factor")
	reps := fs.Int("reps", 3, "repetitions")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out, err := core.RunAblation(*name, *dsName, *scale, *reps, *seed)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
