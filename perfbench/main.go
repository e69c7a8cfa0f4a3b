// Command perfbench is PGB-Go's benchmark: it drives the program through
// its public entry points (core.Run for the paper grids, server.New(...)
// .Handler() over loopback HTTP for the served API), checks every output,
// and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload grid-table7 --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	grid-table7  one core.Run of the Table VII grid at scale 0.1 per operation
//	grid-table9  one core.Run at paper sizes over an ingested snapshot store,
//	             structure queries only (the Table IX/X measurement)
//	serve-mixed  pgb serve's shipped options driven by two closed-loop
//	             clients: 60% fresh compares, 15% repeated compares, 25%
//	             generates
//
// With --trace 0 the result line carries the end-to-end metrics, measured
// with no instrumentation. With --trace 1 the benchmark instead replays
// the same work one call at a time with a span around each call into a
// layer, writes the spans to a trace file, and reports per-layer metrics.
//
// The workload seed derives every input: the grid master seed, dataset
// seeds and the request sequence. The program sees only those inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts the operations a run attempted and those that failed a
// check.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t tally) result(list []unitOf, values map[string]float64) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics(list, values)}
}

// runCtx carries one invocation's settings to a workload.
type runCtx struct {
	seed    int64
	seconds time.Duration
	// dir is the invocation's private scratch directory: snapshot
	// stores, checkpoint manifests and server data live under it.
	dir string
	// log receives the human-readable report; the result line goes to
	// standard output separately.
	log io.Writer
	// spans collects the traced run's spans for the trace file.
	spans []span
}

// workload is one named benchmark scenario.
type workload struct {
	name  string
	run   func(rc *runCtx) (result, error) // end-to-end, untraced
	trace func(rc *runCtx) (result, error) // per-layer, traced replay
}

func workloads() []workload {
	return []workload{
		{"grid-table7", table7().run, table7().trace},
		{"grid-table9", table9().run, table9().trace},
		{"serve-mixed", serveMixed().run, serveMixed().trace},
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: grid-table7, grid-table9 or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed; derives every generated input")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for scratch data and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
			break
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload grid-table7|grid-table9|serve-mixed, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := invoke(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// invoke runs one workload in a fresh scratch directory under out and
// removes that directory afterwards; a traced run leaves its trace file
// in out.
func invoke(w *workload, seed int64, seconds time.Duration, traced bool, out string, log io.Writer) (result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{seed: seed, seconds: seconds, dir: dir, log: log}
	env := environment(w.name, seed, traced)
	fmt.Fprintf(log, "env %s\n", mustJSON(env))

	run := w.run
	if traced {
		run = w.trace
	}
	res, err := run(rc)
	if err != nil {
		return result{}, err
	}
	for _, k := range sortedNames(res.Metrics) {
		if v := res.Metrics[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", k)
		}
	}
	if traced {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", out, w.name, seed)
		if err := writeTrace(path, env, rc.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "trace: %d spans written to %s\n", len(rc.spans), path)
	}
	printReport(log, res)
	return res, nil
}

// printReport writes the metrics as an aligned table to the log.
func printReport(w io.Writer, res result) {
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d error_rate=%.4f\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, k := range sortedNames(res.Metrics) {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
