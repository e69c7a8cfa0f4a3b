package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pgb/internal/datasets"
)

// seriesRow addresses one printed row of a series: a query section on a
// dataset, and the row's label.
type seriesRow struct{ query, dataset, label string }

// parseSeries reads formatSeries output back into its printed values.
func parseSeries(t *testing.T, out string) map[seriesRow][]string {
	t.Helper()
	rows := map[seriesRow][]string{}
	var query, dataset string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "["):
			body := strings.TrimSuffix(strings.TrimPrefix(line, "["), "]")
			sym, rest, ok1 := strings.Cut(body, " (")
			_, ds, ok2 := strings.Cut(rest, ") on ")
			if !ok1 || !ok2 {
				t.Fatalf("malformed section header %q", line)
			}
			query, dataset = sym, ds
		case query != "" && line != "" && !strings.HasPrefix(line, "eps:"):
			f := strings.Fields(line)
			rows[seriesRow{query, dataset, f[0]}] = f[1:]
		}
	}
	return rows
}

// checkSeries asserts that out prints exactly the cells' errors: one row
// per (query, dataset, algorithm), each value the %9.4f rendering of the
// matching CellResult error, columns in ascending ε.
func checkSeries(t *testing.T, out string, cells []CellResult) {
	t.Helper()
	rows := parseSeries(t, out)
	var eps []float64
	want := map[seriesRow]bool{}
	for _, c := range cells {
		if !slices.Contains(eps, c.Epsilon) {
			eps = append(eps, c.Epsilon)
		}
		for _, q := range c.Queries {
			want[seriesRow{q.String(), c.Dataset, c.Algorithm}] = true
		}
	}
	slices.Sort(eps)
	if len(rows) != len(want) {
		t.Fatalf("printed %d rows, want %d:\n%s", len(rows), len(want), out)
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("cell %s/%s/%g failed: %v", c.Algorithm, c.Dataset, c.Epsilon, c.Err)
		}
		col := slices.Index(eps, c.Epsilon)
		for i, q := range c.Queries {
			row := rows[seriesRow{q.String(), c.Dataset, c.Algorithm}]
			if len(row) != len(eps) {
				t.Fatalf("%s on %s, %s: %d values, want %d", q, c.Dataset, c.Algorithm, len(row), len(eps))
			}
			if w := strings.TrimSpace(fmt.Sprintf("%9.4f", c.Errors[i])); row[col] != w {
				t.Errorf("%s on %s, %s, eps=%g: printed %s, cell error %s", q, c.Dataset, c.Algorithm, c.Epsilon, row[col], w)
			}
		}
	}
}

// The fig7 series prints exactly the grid's cell errors.
func TestFig7(t *testing.T) {
	res, err := Run(Config{
		Algorithms: []string{"TmF", "PrivGraph", "DER"},
		Datasets:   []string{"Facebook", "Wiki"},
		Epsilons:   []float64{5, 0.5},
		Queries:    []QueryID{QAvgClustering, QDiameter},
		Reps:       1,
		Scale:      0.02,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.FormatFig7()
	if !strings.HasPrefix(out, "Fig. 7") {
		t.Fatalf("fig7 title missing:\n%s", out)
	}
	checkSeries(t, out, res.Cells)
}

// The ldp series prints exactly the grid's cell errors.
func TestFormatLDP(t *testing.T) {
	res, err := Run(Config{
		Algorithms: []string{"DGG", "LDPGen", "RNL"},
		Datasets:   []string{"Facebook"},
		Epsilons:   []float64{1, 10},
		Queries:    []QueryID{QNumEdges, QDegreeDistribution, QAvgClustering, QCommunityDetection},
		Reps:       2,
		Scale:      0.02,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSeries(t, res.FormatLDP(), res.Cells)
}

// VerifyTmF is one grid run: it prints what Run computes on the same
// configuration.
func TestVerifyTmF(t *testing.T) {
	out, err := VerifyTmF(0.02, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Algorithms: []string{"TmF"},
		Datasets:   []string{datasets.Facebook().Name},
		Queries:    []QueryID{QDegreeDistribution, QCommunityDetection},
		Reps:       1,
		Scale:      0.02,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSeries(t, out, res.Cells)
}

// An ablation prints what runCell computes for each (variant, ε) cell.
func TestRunAblationSmall(t *testing.T) {
	out, err := RunAblation("dgg-construction", "BA", 0.02, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bter", "chunglu", "|E|", "CD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
	variants := Ablations()["dgg-construction"]
	cfg := Config{Datasets: []string{"BA"}, Queries: ablationQueries, Reps: 1, Scale: 0.02, Seed: 5}.withDefaults()
	spec, err := datasets.ByName("BA")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Load(cfg.Scale, cfg.Seed)
	truth := ComputeProfileCached(g, cfg.profileOptions(), cfg.Seed+1)
	var cells []CellResult
	for _, v := range variants {
		for _, eps := range cfg.Epsilons {
			cells = append(cells, runCell(cfg, v.Generator, v.Label, "BA", g, truth, eps))
		}
	}
	checkSeries(t, out, cells)
}

// The label column is as wide as the longest label plus one, and never
// narrower than ten.
func TestFormatSeriesLabelWidth(t *testing.T) {
	for _, tc := range []struct{ label, want string }{
		{"TmF", "eps:               1\nTmF           0.5000\n"},
		{"community-heavy", "eps:                     1\ncommunity-heavy     0.5000\n"},
	} {
		res := &Results{
			Config: Config{Algorithms: []string{tc.label}, Datasets: []string{"ER"}, Epsilons: []float64{1}, Queries: []QueryID{QDiameter}},
			Cells:  []CellResult{{Algorithm: tc.label, Dataset: "ER", Epsilon: 1, Queries: []QueryID{QDiameter}, Errors: []float64{0.5}}},
		}
		want := "t\n\n[Diam (RE) on ER]\n" + tc.want
		if got := res.formatSeries("t", []QueryID{QDiameter}, []string{"ER"}); got != want {
			t.Errorf("got\n%q\nwant\n%q", got, want)
		}
	}
}
