package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"pgb/internal/core"
)

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("splitList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitList = %v", got)
		}
	}
}

func TestGridFlagsConfig(t *testing.T) {
	gf := newGridFlags("test")
	if err := gf.fs.Parse([]string{"-scale", "0.2", "-reps", "4", "-eps", "0.5, 2", "-algs", "TmF,DGG", "-datasets", "ER"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := gf.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 0.2 || cfg.Reps != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if len(cfg.Epsilons) != 2 || cfg.Epsilons[1] != 2 {
		t.Fatalf("eps = %v", cfg.Epsilons)
	}
	if len(cfg.Algorithms) != 2 || cfg.Algorithms[0] != "TmF" {
		t.Fatalf("algs = %v", cfg.Algorithms)
	}
	if len(cfg.Datasets) != 1 || cfg.Datasets[0] != "ER" {
		t.Fatalf("datasets = %v", cfg.Datasets)
	}
}

// -distance sets the profile's distance mode; an unknown mode is an error.
func TestGridFlagsDistance(t *testing.T) {
	gf := newGridFlags("test")
	if err := gf.fs.Parse([]string{"-distance", "anf"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := gf.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile.DistanceMode != core.DistanceANF {
		t.Fatalf("distance mode = %q, want anf", cfg.Profile.DistanceMode)
	}
	gf = newGridFlags("test")
	if err := gf.fs.Parse([]string{"-distance", "bogus"}); err != nil {
		t.Fatal(err)
	}
	if _, err := gf.config(); err == nil {
		t.Fatal("unknown -distance accepted")
	}
}

func TestGridFlagsBadEps(t *testing.T) {
	gf := newGridFlags("test")
	if err := gf.fs.Parse([]string{"-eps", "abc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := gf.config(); err == nil || !strings.Contains(err.Error(), "bad -eps") {
		t.Fatalf("expected bad-eps error, got %v", err)
	}
}

func TestCmdDatasetsRuns(t *testing.T) {
	if err := cmdDatasets([]string{"-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdGridTable7Small(t *testing.T) {
	args := []string{"-scale", "0.02", "-reps", "1", "-algs", "DGG", "-datasets", "BA", "-eps", "1"}
	if err := cmdGrid("table7", args); err != nil {
		t.Fatal(err)
	}
}

func TestCmdVerifyUnknownAlg(t *testing.T) {
	if err := cmdVerify([]string{"-alg", "nope"}); err == nil {
		t.Fatal("unknown verification accepted")
	}
}

func TestCmdReportUnknowns(t *testing.T) {
	if err := cmdReport([]string{"-alg", "nope", "-scale", "0.02"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := cmdReport([]string{"-dataset", "nope", "-scale", "0.02"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCmdAblationUnknown(t *testing.T) {
	if err := cmdAblation([]string{"-name", "nope", "-scale", "0.02"}); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

// pgb serve must bound how long a client may take to send its headers.
func TestServeHTTPServerHasReadHeaderTimeout(t *testing.T) {
	hs := newHTTPServer(":0", nil)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
}

// TestCmdGenerateGolden pins a digest of what `pgb generate` prints for
// each paper mechanism on a tiny BA graph, so the CLI generation path
// cannot drift from the values every other caller produces.
func TestCmdGenerateGolden(t *testing.T) {
	want := map[string]string{
		"DP-dK":     "f484de2d8ccee7eea48005425dbd55bac229875f8647f346b0ddc0331c570233",
		"TmF":       "6236920fee57e4d888d2b6b5d553ba957d87ea0b0a3451ed2a9abdc1b3c4c64c",
		"PrivSKG":   "d9656bb496ea04ad6e1409c198b9c8a985c3b7f5474ef196043a1419205a8c7c",
		"PrivHRG":   "2c0fadf37cf72440c906dcc50a68056562f889a5077107dab656f128a96ef116",
		"PrivGraph": "3742def16bfe57bdfd9563ec49cc874942ce0b6b097664a2323d9718dc4788e3",
		"DGG":       "8f764937dfc5e15bbbb1d603b747ff641f9a4307a1c42b1e358ef5d8a231773f",
	}
	for _, alg := range core.AlgorithmNames() {
		out := captureStdout(t, func() error {
			return cmdGenerate([]string{"-alg", alg, "-dataset", "BA", "-scale", "0.02", "-format", "edgelist"})
		})
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want[alg] {
			t.Errorf("%s: output digest %s, want %s", alg, got, want[alg])
		}
	}
}

// An unknown -format must fail before the dataset is loaded or any
// mechanism runs, so the unknown dataset here is never reached.
func TestCmdGenerateUnknownFormat(t *testing.T) {
	err := cmdGenerate([]string{"-format", "xml", "-dataset", "nope"})
	if err == nil || !strings.Contains(err.Error(), "-format") {
		t.Fatalf("expected -format error, got %v", err)
	}
}

// fig2 prints only the queries the run evaluated.
func TestCmdFig2QueriesSubset(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdGrid("fig2", []string{"-algs", "TmF", "-datasets", "ER", "-eps", "1", "-reps", "1", "-scale", "0.02", "-queries", "Diam"})
	})
	if n := strings.Count(out, "\n["); n != 1 || !strings.Contains(out, "[Diam (RE) on ER]") {
		t.Fatalf("fig2 -queries Diam printed %d sections, want 1:\n%s", n, out)
	}
}

// fig7 and ldp are grid commands: their paper axes fill the unset grid
// flags, they print what core.Run computes on that configuration, and
// the bytes do not depend on -jobs.
func TestCmdSeriesCommandsMatchGrid(t *testing.T) {
	for _, tc := range []struct {
		cmd    string
		format func(*core.Results) string
	}{
		{"fig7", (*core.Results).FormatFig7},
		{"ldp", (*core.Results).FormatLDP},
	} {
		args := []string{"-eps", "0.5,5", "-reps", "1", "-scale", "0.02", "-seed", "7"}
		serial := captureStdout(t, func() error { return cmdGrid(tc.cmd, append(args, "-jobs", "1")) })
		parallel := captureStdout(t, func() error { return cmdGrid(tc.cmd, append(args, "-jobs", "2")) })
		if serial != parallel {
			t.Fatalf("%s: -jobs 1 and -jobs 2 differ:\n%s\nvs\n%s", tc.cmd, serial, parallel)
		}
		ax := seriesAxes[tc.cmd]
		res, err := core.Run(core.Config{
			Algorithms: ax.algs, Datasets: ax.datasets, Queries: ax.queries,
			Epsilons: []float64{0.5, 5}, Reps: 1, Scale: 0.02, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.format(res); serial != want {
			t.Fatalf("%s printed\n%s\nwant (core.Run on its axes)\n%s", tc.cmd, serial, want)
		}
	}
}
