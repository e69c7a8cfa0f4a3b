package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// Tiny versions of the three workloads: same code paths, seconds to run.
func tinyGrid(pins map[int64]string) gridSpec {
	return gridSpec{
		algorithms: []string{"DGG", "TmF"},
		datasets:   []string{"ER", "BA"},
		epsilons:   []float64{1},
		scale:      0.02,
		checkpoint: true,
		pins:       pins,
	}
}

func tinySnapshotGrid() gridSpec {
	s := tinyGrid(nil)
	s.queries = []string{"|V|", "|E|", "d_avg", "DegDist"}
	s.checkpoint, s.snapshots = false, true
	return s
}

func tinyServe() serveSpec {
	s := serveMixed()
	s.truths = []string{"BA", "ER"}
	s.scale = 0.02
	s.pool = []string{"DGG"}
	s.checkEvery = 1
	return s
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesWorkloadsAndMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, list []unitOf) {
		if len(file) != len(list) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(list))
		}
		for i, u := range list {
			if file[i].Name != u.name || file[i].Unit != u.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, file[i].Name, file[i].Unit, u.name, u.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs each tiny workload for about one operation, untraced and
// traced, and checks the result line names every metric with its unit.
func TestSmoke(t *testing.T) {
	cases := []struct {
		name       string
		run, trace func(*runCtx) (result, error)
	}{
		{"grid", tinyGrid(nil).run, tinyGrid(nil).trace},
		{"grid-snapshots", tinySnapshotGrid().run, tinySnapshotGrid().trace},
		{"serve", tinyServe().run, tinyServe().trace},
	}
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			w := &workload{name: c.name, run: c.run, trace: c.trace}
			res, err := invoke(w, 7, time.Millisecond, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", c.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", c.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			var line struct {
				Metrics map[string]metric `json:"metrics"`
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(list) {
				t.Errorf("%s traced=%t: %d metrics, want %d", c.name, traced, len(line.Metrics), len(list))
			}
			for _, u := range list {
				if m, ok := line.Metrics[u.name]; !ok || m.Unit != u.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", c.name, traced, u.name, m, u.unit)
				}
			}
		}
	}
}

// TestCorruptedPinCountsAsFailure checks that an operation whose digest
// differs from the pin for its seed is a failed operation.
func TestCorruptedPinCountsAsFailure(t *testing.T) {
	rc := &runCtx{seed: 7, seconds: time.Millisecond, dir: t.TempDir(), log: io.Discard}
	good, err := tinyGrid(nil).run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !good.Correct || good.Failed != 0 {
		t.Fatalf("unpinned run: correct=%t failed=%d", good.Correct, good.Failed)
	}
	rc.dir = t.TempDir()
	bad, err := tinyGrid(map[int64]string{7: "0000000000000000"}).run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Correct || bad.Failed != bad.Attempted {
		t.Fatalf("corrupted pin: correct=%t attempted=%d failed=%d, want every operation failed", bad.Correct, bad.Attempted, bad.Failed)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := []struct {
		name string
		self time.Duration
	}{{"cell", 100 - 40 - 10}, {"a", 30 + 30}, {"b", 20 - 10}, {"c", 10}}
	for _, w := range want {
		if self[w.name] != w.self {
			t.Errorf("self[%s] = %d, want %d", w.name, self[w.name], w.self)
		}
	}
}
