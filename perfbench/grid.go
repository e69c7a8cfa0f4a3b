package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/graph"
)

// gridSpec is a paper-grid workload: one operation is one core.Run.
type gridSpec struct {
	algorithms []string  // nil runs the paper's six
	datasets   []string  // nil runs the paper's eight
	epsilons   []float64 // privacy budgets
	queries    []string  // query symbols; nil runs all fifteen
	scale      float64
	// snapshots resolves datasets from a snapshot store the set-up
	// ingests; each operation opens the store afresh, as a `pgb table9
	// -snapshot` invocation does.
	snapshots bool
	// checkpoint streams each operation's cells to a fresh manifest.
	checkpoint bool
	// pins maps a workload seed to the result digest its operations
	// must produce.
	pins map[int64]string
}

func table7() gridSpec {
	return gridSpec{
		epsilons:   []float64{0.1, 1, 10},
		scale:      0.1,
		checkpoint: true,
		pins:       table7Pins,
	}
}

func table9() gridSpec {
	return gridSpec{
		datasets:  []string{"Facebook", "HepPh", "Gnutella", "BA"},
		epsilons:  []float64{1},
		queries:   []string{"|V|", "|E|", "d_avg", "d_var", "DegDist", "Ass"},
		scale:     1,
		snapshots: true,
		pins:      table9Pins,
	}
}

// gridRun is one workload invocation's state.
type gridRun struct {
	spec     gridSpec
	rc       *runCtx
	cfg      core.Config // normalized; Workers, Store and CheckpointPath are set per operation
	storeDir string
	check    *digestCheck
	ops      int
}

func (s gridSpec) start(rc *runCtx) (*gridRun, error) {
	cfg := core.Config{
		Algorithms: s.algorithms,
		Datasets:   s.datasets,
		Epsilons:   s.epsilons,
		Reps:       1,
		Scale:      s.scale,
		Seed:       masterSeed(rc.seed),
	}
	if s.queries != nil {
		q, err := core.ParseQueries(s.queries)
		if err != nil {
			return nil, err
		}
		cfg.Queries = q
	}
	return &gridRun{spec: s, rc: rc, cfg: cfg.Normalized(), check: newDigestCheck(s.pins, rc.seed)}, nil
}

// prepare is one set-up repetition. With snapshots it ingests every
// dataset into a fresh store; otherwise it does the cold pre-grid work
// core.Run does per dataset: build the graph and its truth profile.
func (g *gridRun) prepare(k int) error {
	if !g.spec.snapshots {
		for _, name := range g.cfg.Datasets {
			spec, err := datasets.ByName(name)
			if err != nil {
				return err
			}
			gr, _, err := datasets.LoadVia(nil, spec, g.cfg.Scale, g.cfg.Seed)
			if err != nil {
				return err
			}
			core.ComputeProfileSeeded(gr, core.ProfileOptions{Queries: g.cfg.Queries}, g.cfg.Seed+1)
		}
		return nil
	}
	g.storeDir = filepath.Join(g.rc.dir, fmt.Sprintf("snapshots-%d", k))
	st, err := graph.OpenSnapshotStore(g.storeDir)
	if err != nil {
		return err
	}
	return errors.Join(g.ingest(st), st.Close())
}

// ingest generates every dataset and puts it into st.
func (g *gridRun) ingest(st *graph.SnapshotStore) error {
	for _, name := range g.cfg.Datasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			return err
		}
		gr, _, err := datasets.LoadVia(nil, spec, g.cfg.Scale, g.cfg.Seed)
		if err != nil {
			return err
		}
		if err := st.Put(datasets.RefFor(name, g.cfg.Scale, g.cfg.Seed), gr); err != nil {
			return err
		}
	}
	return nil
}

// opStats is one measured operation.
type opStats struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	cells int
	ok    bool
}

// op runs one core.Run at the given worker count and checks its result.
func (g *gridRun) op(workers int) (opStats, error) {
	cfg := g.cfg
	cfg.Workers = workers
	if g.spec.snapshots {
		st, err := graph.OpenSnapshotStore(g.storeDir)
		if err != nil {
			return opStats{}, err
		}
		defer st.Close()
		cfg.Store = st
	}
	if g.spec.checkpoint {
		cfg.CheckpointPath = filepath.Join(g.rc.dir, fmt.Sprintf("checkpoint-%d.jsonl", g.ops))
		defer os.Remove(cfg.CheckpointPath)
	}
	g.ops++
	alloc0, cpu0 := totalAlloc(), cpuTime()
	start := time.Now()
	res, err := core.Run(cfg)
	st := opStats{wall: time.Since(start), cpu: cpuTime() - cpu0, alloc: totalAlloc() - alloc0}
	if err != nil {
		fmt.Fprintf(g.rc.log, "operation %d: %v\n", g.ops, err)
		return st, nil
	}
	st.cells = len(res.Cells)
	digest, err := gridDigest(res)
	if err != nil {
		fmt.Fprintf(g.rc.log, "operation %d: %v\n", g.ops, err)
		return st, nil
	}
	st.ok = g.check.ok(digest, g.rc.log)
	fmt.Fprintf(g.rc.log, "operation %d: %d workers, %d cells in %.0f ms, digest %s\n", g.ops, workers, st.cells, ms(st.wall), digest)
	return st, nil
}

// run is the untraced workload: set-up, one discarded warm-up operation,
// then operations at full width until the window is spent.
func (s gridSpec) run(rc *runCtx) (result, error) {
	g, err := s.start(rc)
	if err != nil {
		return result{}, err
	}
	setup, err := timeSetup(g.prepare)
	if err != nil {
		return result{}, err
	}
	var t tally
	warm, err := g.op(0)
	if err != nil {
		return result{}, err
	}
	t.add(warm.ok)

	var walls, rates []float64
	var cells int
	var alloc uint64
	for begin := time.Now(); len(walls) == 0 || time.Since(begin) < rc.seconds; {
		st, err := g.op(0)
		if err != nil {
			return result{}, err
		}
		t.add(st.ok)
		walls = append(walls, ms(st.wall))
		rates = append(rates, float64(st.cells)/st.wall.Seconds())
		cells += st.cells
		alloc += st.alloc
	}
	fmt.Fprintf(rc.log, "%d timed operations, %d cells, warm-up %.0f ms\n", len(walls), cells, ms(warm.wall))
	return t.result(endToEnd, map[string]float64{
		"setup_s":           setup,
		"peak_rss_mb":       peakRSSMB(),
		"throughput_per_s":  median(rates),
		"alloc_kb_per_item": float64(alloc) / float64(max(cells, 1)) / 1024,
		"latency_p50_ms":    median(walls),
	}), nil
}

// trace is the traced workload: an operation at full width and one at
// a single worker, both untraced, then a replay of the same cells one
// call at a time with a span around each call into a layer.
func (s gridSpec) trace(rc *runCtx) (result, error) {
	g, err := s.start(rc)
	if err != nil {
		return result{}, err
	}
	if err := g.prepare(0); err != nil {
		return result{}, err
	}
	var t tally
	nproc := runtime.GOMAXPROCS(0)
	warm, err := g.op(nproc)
	if err != nil {
		return result{}, err
	}
	t.add(warm.ok)
	wide, err := g.op(nproc)
	if err != nil {
		return result{}, err
	}
	t.add(wide.ok)
	serial, err := g.op(1)
	if err != nil {
		return result{}, err
	}
	t.add(serial.ok)

	rec := newRecorder()
	start := time.Now()
	digest, err := g.replay(rec)
	replayWall := time.Since(start)
	if err != nil {
		fmt.Fprintf(rc.log, "replay: %v\n", err)
		t.add(false)
	} else {
		t.add(g.check.ok(digest, rc.log))
	}
	rc.spans = rec.spans

	v := layerValues(rec.spans, 1)
	v["core.unattributed_ms"] = ms(serial.wall) - v["core.attributed_ms"]
	v["par.speedup"] = serial.wall.Seconds() / wide.wall.Seconds()
	v["par.cpu_utilization"] = wide.cpu.Seconds() / (wide.wall.Seconds() * float64(nproc))
	v["trace.replay_minus_untraced_ms"] = ms(replayWall - serial.wall)
	fmt.Fprintf(rc.log, "wall: %d workers %.0f ms, 1 worker %.0f ms, traced replay %.0f ms; distances %.0f%%, generation %.0f%% of attributed\n",
		nproc, ms(wide.wall), ms(serial.wall), ms(replayWall),
		100*v["stats.distances_ms"]/v["core.attributed_ms"], 100*v["algo.generate_ms"]/v["core.attributed_ms"])
	return t.result(perLayer, v), nil
}

// replay recomputes the grid's cells serially, as core.Run does, with a
// span around each call into a layer, and returns the digest of the
// recomputed results, which must equal the operations' digest.
func (g *gridRun) replay(rec *recorder) (string, error) {
	cfg := g.cfg
	var st *graph.SnapshotStore
	if g.spec.snapshots {
		var err error
		if st, err = graph.OpenSnapshotStore(g.storeDir); err != nil {
			return "", err
		}
		defer st.Close()
	}
	popt := core.ProfileOptions{Queries: cfg.Queries}
	graphs := make(map[string]*graph.Graph)
	truths := make(map[string]*core.Profile)
	for i, name := range cfg.Datasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			return "", err
		}
		outer := rec.begin(spanDataset, i)
		var gr *graph.Graph
		if st != nil {
			rec.do("graph.snapshot_open", i, func() { gr, err = st.Open(datasets.RefFor(name, cfg.Scale, cfg.Seed)) })
		} else {
			rec.do("datasets.load", i, func() { gr, _, err = datasets.LoadVia(nil, spec, cfg.Scale, cfg.Seed) })
		}
		if err != nil {
			return "", err
		}
		rec.do("core.profile_cached", i, func() { truths[name] = core.ComputeProfileCached(gr, popt, cfg.Seed+1) })
		rec.end(outer)
		graphs[name] = gr
	}

	groups := queryGroups(cfg.Queries)
	var recs []core.ErrorRecord
	op := 0
	for _, alg := range cfg.Algorithms {
		gen, err := core.NewAlgorithm(alg)
		if err != nil {
			return "", err
		}
		for _, ds := range cfg.Datasets {
			for _, eps := range cfg.Epsilons {
				op++
				cell := rec.begin(spanCell, op)
				seed := cfg.Seed ^ hashCell(alg, ds, eps) // repetition 0
				syn, err := generate(rec, op, gen, graphs[ds], eps, seed)
				if err != nil {
					return "", fmt.Errorf("%s on %s at eps=%g: %w", alg, ds, eps, err)
				}
				p := profileByGroup(rec, op, syn, groups, core.SubSeed(seed, 1))
				rec.do("core.score", op, func() {
					for _, q := range cfg.Queries {
						v, _ := core.Score(q, truths[ds], p)
						recs = append(recs, core.ErrorRecord{Algorithm: alg, Dataset: ds, Epsilon: eps, Query: q, Error: v})
					}
				})
				rec.end(cell)
			}
		}
	}
	return digestRecords(recs)
}

// generate runs one serial generation inside a span named after the
// mechanism, recording the heap it allocates.
func generate(rec *recorder, op int, gen algo.Generator, in *graph.Graph, eps float64, seed int64) (*graph.Graph, error) {
	var out *graph.Graph
	var err error
	before := totalAlloc()
	s := rec.do(spanGenerate+gen.Name(), op, func() {
		out, err = algo.GenerateWith(gen, in, eps, rand.New(rand.NewSource(seed)), algo.Serial)
	})
	s.Bytes = totalAlloc() - before
	return out, err
}

// hashCell mirrors core's per-cell seed derivation, so the replay draws
// the same random streams as core.Run; the digest comparison after the
// replay fails if the two ever diverge.
func hashCell(alg, ds string, eps float64) int64 {
	h := int64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
	}
	mix(alg)
	mix(ds)
	mix(fmt.Sprintf("%g", eps))
	return h
}
