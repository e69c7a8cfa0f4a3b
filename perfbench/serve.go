package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pgb"
	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/graph"
	"pgb/internal/server"
)

// serveSpec is the served-request workload: pgb serve's shipped options
// behind a loopback listener, driven by closed-loop clients, because the
// API's callers are scripts that wait for each reply.
type serveSpec struct {
	truths []string // dataset refs compared against and generated from
	scale  float64
	pool   []string // mechanisms whose outputs, per truth, are sent inline
	eps    float64
	// A block of the request sequence holds this many fresh compares,
	// repeats of a recent compare and generates, shuffled.
	compares, repeats, generates int
	clients                      int
	// checkEvery: fresh compares whose sequence index is a multiple of
	// checkEvery are recomputed with pgb.CompareQueries after the timed
	// window.
	checkEvery int
}

func serveMixed() serveSpec {
	return serveSpec{
		truths:     []string{"Facebook", "HepPh", "BA"},
		scale:      0.25,
		pool:       []string{"DGG", "PrivGraph", "TmF"},
		eps:        1,
		compares:   12,
		repeats:    3,
		generates:  5,
		clients:    2,
		checkEvery: 5,
	}
}

type reqKind int

const (
	kindCompare reqKind = iota
	kindRepeat
	kindGenerate
)

func (k reqKind) String() string {
	return [...]string{"compare", "repeat", "generate"}[k]
}

// request is one prepared HTTP request. Its body is the concatenation of
// parts; an inline synthetic graph is shared between bodies, not copied.
type request struct {
	kind  reqKind
	path  string
	parts [3][]byte
	truth int    // index into serveSpec.truths
	pool  int    // compare: index into the synthetic pool
	mech  string // generate: mechanism
	seed  int64
	of    int // repeat: index of the compare it repeats
}

func (r *request) body() io.Reader {
	return io.MultiReader(bytes.NewReader(r.parts[0]), bytes.NewReader(r.parts[1]), bytes.NewReader(r.parts[2]))
}

func (r *request) size() int64 { return int64(len(r.parts[0]) + len(r.parts[1]) + len(r.parts[2])) }

// poolGraph is one synthetic graph compare requests send inline.
type poolGraph struct {
	g    *graph.Graph
	wire []byte
}

// serveRun is one workload invocation's state.
type serveRun struct {
	spec   serveSpec
	rc     *runCtx
	master int64
	truths []*graph.Graph
	pool   []poolGraph
	warm   int // the sequence's first warm requests are the warm-up
	seq    []request
	url    string
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	client *http.Client
}

// datasetSeed is the dataset seed pgb serve defaults to; the requests
// name the canonical datasets, and the synthetic pool derives from them
// with fixed seeds, so the workload seed varies the request sequence and
// per-request seeds but not the graphs.
const datasetSeed = 42

// truthRef is the JSON dataset reference of truth t.
func (s *serveRun) truthRef(t int) string {
	return fmt.Sprintf(`{"dataset":%q,"scale":%g,"seed":%d}`, s.spec.truths[t], s.spec.scale, datasetSeed)
}

// prepare is one set-up repetition: start a server on a fresh data
// directory behind a loopback listener, build the synthetic pool and the
// request sequence.
func (s *serveRun) prepare(k int) error {
	s.stop()
	srv, err := server.New(server.Options{DataDir: filepath.Join(s.rc.dir, fmt.Sprintf("serve-%d", k))})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}(s.hs, s.served)
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * s.spec.clients, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}

	s.truths = s.truths[:0]
	s.pool = s.pool[:0]
	for _, name := range s.spec.truths {
		g, err := pgb.Load(pgb.Source{Dataset: name, Scale: s.spec.scale, Seed: datasetSeed})
		if err != nil {
			return err
		}
		s.truths = append(s.truths, g)
		for i, mech := range s.spec.pool {
			syn, err := pgb.Generate(mech, g, s.spec.eps, datasetSeed+int64(i))
			if err != nil {
				return err
			}
			wire, err := json.Marshal(syn)
			if err != nil {
				return err
			}
			s.pool = append(s.pool, poolGraph{g: syn, wire: wire})
		}
	}
	s.seq = s.sequence(s.master, 40*int(s.rc.seconds.Seconds())+200)
	return nil
}

// stop shuts the server down and waits for its goroutine to end.
func (s *serveRun) stop() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // in-flight requests have all completed by now
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.hs = nil
}

// sequence builds the request sequence from seed: a warm-up of one
// compare and one generate per truth, then n requests in shuffled blocks
// of the workload's mix. Compares cycle over truths and pool graphs,
// generates over mechanisms and truths, each with a fresh seed.
func (s *serveRun) sequence(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	nt, np := len(s.spec.truths), len(s.spec.pool)
	var seq []request
	var compares []int // indices of fresh compares so far
	nc, ng := 0, 0
	fresh := func() int64 { return rng.Int63n(1<<31) + 1 }
	compare := func(t, p int) {
		r := request{kind: kindCompare, path: "/v1/compare", truth: t, pool: t*np + p, seed: fresh()}
		r.parts = [3][]byte{
			[]byte(`{"truth":` + s.truthRef(t) + `,"synthetic":{"graph":`),
			s.pool[r.pool].wire,
			[]byte(`},"seed":` + strconv.FormatInt(r.seed, 10) + `}`),
		}
		compares = append(compares, len(seq))
		seq = append(seq, r)
	}
	generate := func(t int, mech string) {
		r := request{kind: kindGenerate, path: "/v1/generate", truth: t, mech: mech, seed: fresh()}
		r.parts[0] = []byte(fmt.Sprintf(`{"algorithm":%q,"eps":%g,"seed":%d,"source":%s}`, mech, s.spec.eps, r.seed, s.truthRef(t)))
		seq = append(seq, r)
	}
	for t := 0; t < nt; t++ {
		compare(t, 0)
		generate(t, mechanisms[t%len(mechanisms)])
	}
	s.warm = len(seq)

	var block []reqKind
	for i := 0; i < s.spec.compares; i++ {
		block = append(block, kindCompare)
	}
	for i := 0; i < s.spec.repeats; i++ {
		block = append(block, kindRepeat)
	}
	for i := 0; i < s.spec.generates; i++ {
		block = append(block, kindGenerate)
	}
	for len(seq) < s.warm+n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			switch k {
			case kindCompare:
				compare(nc%nt, (nc/nt)%np)
				nc++
			case kindGenerate:
				generate((ng/len(mechanisms))%nt, mechanisms[ng%len(mechanisms)])
				ng++
			case kindRepeat:
				// Repeat one of the last four compares sent at least
				// three requests earlier, so it has usually completed.
				var cands []int
				for i := len(compares) - 1; i >= 0 && len(cands) < 4; i-- {
					if len(seq)-compares[i] >= 3 {
						cands = append(cands, compares[i])
					}
				}
				of := cands[rng.Intn(len(cands))]
				r := seq[of]
				r.kind, r.of = kindRepeat, of
				seq = append(seq, r)
			}
		}
	}
	return seq
}

// sample is one request's outcome.
type sample struct {
	i          int
	start, end time.Duration // since the driving began
	status     int
	body       []byte
	err        error
}

func (m sample) latency() time.Duration { return m.end - m.start }

// drive sends seq[from:] from clients closed-loop clients until the
// sequence or the time budget runs out, sending at least one request.
// It returns the samples in completion order and the wall time from the
// first send to the last reply.
func (s *serveRun) drive(seq []request, from, clients int, budget time.Duration) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
		next    atomic.Int64
	)
	next.Store(int64(from))
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) || (i > from && time.Since(t0) >= budget) {
					return
				}
				m := s.send(&seq[i], t0)
				m.i = i
				mu.Lock()
				samples = append(samples, m)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var last time.Duration
	for _, m := range samples {
		last = max(last, m.end)
	}
	return samples, last
}

func (s *serveRun) send(r *request, t0 time.Time) sample {
	m := sample{start: time.Since(t0)}
	req, err := http.NewRequest(http.MethodPost, s.url+r.path, r.body())
	if err == nil {
		req.ContentLength = r.size()
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = s.client.Do(req); err == nil {
			m.status = resp.StatusCode
			m.body, err = io.ReadAll(resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
		}
	}
	m.err = err
	m.end = time.Since(t0)
	return m
}

// compareReply and generateReply are the parts of the responses the
// checks read.
type compareReply struct {
	Rows []struct {
		Query        string  `json:"query"`
		Metric       string  `json:"metric"`
		TrueValue    float64 `json:"true_value"`
		SynValue     float64 `json:"syn_value"`
		Error        float64 `json:"error"`
		HigherBetter bool    `json:"higher_better"`
	} `json:"rows"`
}

type generateReply struct {
	Fingerprint string `json:"fingerprint"`
}

// sameRows reports whether a compare reply equals a library report,
// value for value.
func sameRows(got compareReply, want pgb.QueryReport) bool {
	if len(got.Rows) != len(want.Rows) {
		return false
	}
	for i, g := range got.Rows {
		w := want.Rows[i]
		if g.Query != w.Query || g.Metric != w.Metric || g.TrueValue != w.TrueValue ||
			g.SynValue != w.SynValue || g.Error != w.Error || g.HigherBetter != w.HigherBetter {
			return false
		}
	}
	return true
}

// check verifies the samples after the timed window and returns how many
// failed: a transport error, a non-200 or malformed reply, or a repeat
// that differs from the reply it repeats. With deep set it also
// recomputes every generate and the fresh compares at multiples of
// checkEvery with the library: the fingerprint must equal pgb.Generate's and the rows
// pgb.CompareQueries' on the same inputs.
func (s *serveRun) check(seq []request, samples []sample, deep bool, log io.Writer) int {
	byIndex := make(map[int]sample, len(samples))
	for _, m := range samples {
		byIndex[m.i] = m
	}
	failed := 0
	fail := func(m sample, format string, args ...any) {
		failed++
		fmt.Fprintf(log, "request %d (%s): %s\n", m.i, seq[m.i].kind, fmt.Sprintf(format, args...))
	}
	for _, m := range samples {
		r := &seq[m.i]
		if m.err != nil || m.status != http.StatusOK {
			fail(m, "status %d, error %v: %.200s", m.status, m.err, m.body)
			continue
		}
		switch r.kind {
		case kindCompare, kindRepeat:
			var got compareReply
			if err := json.Unmarshal(m.body, &got); err != nil || len(got.Rows) != core.NumQueries {
				fail(m, "malformed compare reply: %v", err)
				continue
			}
			if r.kind == kindRepeat {
				orig, ok := byIndex[r.of]
				if !ok || orig.status != http.StatusOK {
					continue // the original is not in this window; nothing to compare with
				}
				var want compareReply
				if json.Unmarshal(orig.body, &want) != nil || !sameCompare(got, want) {
					fail(m, "repeat differs from request %d", r.of)
				}
				continue
			}
			if !deep || m.i%s.spec.checkEvery != 0 {
				continue
			}
			want := pgb.CompareQueries(s.truths[r.truth], s.pool[r.pool].g, r.seed, nil)
			if !sameRows(got, want) {
				fail(m, "reply differs from pgb.CompareQueries")
			}
		case kindGenerate:
			var got generateReply
			if err := json.Unmarshal(m.body, &got); err != nil {
				fail(m, "malformed generate reply: %v", err)
				continue
			}
			if !deep {
				continue
			}
			syn, err := pgb.Generate(r.mech, s.truths[r.truth], s.spec.eps, r.seed)
			if err != nil {
				fail(m, "pgb.Generate: %v", err)
				continue
			}
			if want := fmt.Sprintf("%016x", syn.Fingerprint()); got.Fingerprint != want {
				fail(m, "fingerprint %s, pgb.Generate gives %s", got.Fingerprint, want)
			}
		}
	}
	return failed
}

func sameCompare(a, b compareReply) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return false
		}
	}
	return true
}

// latencies returns the latencies in ms of the samples of one kind.
func latencies(seq []request, samples []sample, kind reqKind) []float64 {
	var out []float64
	for _, m := range samples {
		if seq[m.i].kind == kind && m.err == nil && m.status == http.StatusOK {
			out = append(out, ms(m.latency()))
		}
	}
	return out
}

func (s serveSpec) begin(rc *runCtx) *serveRun {
	return &serveRun{spec: s, rc: rc, master: masterSeed(rc.seed)}
}

// run is the untraced workload: set-up, the warm-up requests, then the
// closed-loop clients for the timed window; checks follow the window.
func (s serveSpec) run(rc *runCtx) (result, error) {
	sr := s.begin(rc)
	defer sr.stop()
	setup, err := timeSetup(sr.prepare)
	if err != nil {
		return result{}, err
	}
	warm, _ := sr.drive(sr.seq[:sr.warm], 0, 1, time.Hour)
	alloc0 := totalAlloc()
	samples, wall := sr.drive(sr.seq, sr.warm, s.clients, rc.seconds)
	alloc := totalAlloc() - alloc0
	if len(samples) == 0 {
		return result{}, fmt.Errorf("no request completed")
	}
	failed := sr.check(sr.seq, append(warm, samples...), true, rc.log)

	cmp := latencies(sr.seq, samples, kindCompare)
	gen := latencies(sr.seq, samples, kindGenerate)
	rep := latencies(sr.seq, samples, kindRepeat)
	label, tail := tailQuantile(cmp)
	fmt.Fprintf(rc.log, "%d requests in %.1f s: compare n=%d p50 %.1f ms %s %.1f ms; generate n=%d p50 %.1f ms; repeat n=%d p50 %.1f ms\n",
		len(samples), wall.Seconds(), len(cmp), median(cmp), label, tail, len(gen), median(gen), len(rep), median(rep))
	t := tally{attempted: len(warm) + len(samples), failed: failed}
	return t.result(endToEnd, map[string]float64{
		"setup_s":           setup,
		"peak_rss_mb":       peakRSSMB(),
		"throughput_per_s":  float64(len(samples)) / wall.Seconds(),
		"alloc_kb_per_item": float64(alloc) / float64(len(samples)) / 1024,
		"latency_p50_ms":    median(cmp),
	}), nil
}

// trace is the traced workload. The whole run is pinned to one
// processor, so the server's service time, its queueing and the serial
// library replay all describe the same work. One client sends the
// sequence (service time per request); each of those requests is then
// replayed as library calls with a span around each call (handler time
// is service time minus the replay); finally two clients send a second
// sequence (queueing wait and result-cache hits).
func (s serveSpec) trace(rc *runCtx) (result, error) {
	sr := s.begin(rc)
	defer sr.stop()
	if err := sr.prepare(0); err != nil {
		return result{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	phase := rc.seconds * 35 / 100
	warm, _ := sr.drive(sr.seq[:sr.warm], 0, 1, time.Hour)
	single, _ := sr.drive(sr.seq, sr.warm, 1, phase)
	if len(single) == 0 {
		return result{}, fmt.Errorf("no request completed")
	}
	// The replay below recomputes every one of these requests.
	failed := sr.check(sr.seq, append(warm, single...), false, rc.log)

	rec := newRecorder()
	replayed, mismatches := sr.replay(rec, single)
	failed += mismatches
	rc.spans = rec.spans

	// The second sequence shares the server, warm already, but none of
	// the first one's seeds.
	other := sr.sequence(sr.master^0x5a5a5a5a, len(sr.seq)-sr.warm)
	before, err := sr.comparesExecuted()
	if err != nil {
		return result{}, err
	}
	loaded, _ := sr.drive(other, sr.warm, s.clients, phase)
	after, err := sr.comparesExecuted()
	if err != nil {
		return result{}, err
	}
	failed += sr.check(other, loaded, false, rc.log)

	n := float64(len(single))
	v := layerValues(rec.spans, n)
	var handler time.Duration
	for _, m := range single {
		handler += m.latency() - replayed[m.i]
	}
	service := median(latencies(sr.seq, single, kindCompare))
	v["server.service_ms.compare"] = service
	v["server.service_ms.generate"] = median(latencies(sr.seq, single, kindGenerate))
	v["server.handler_ms"] = ms(handler) / n
	v["server.wait_ms"] = median(latencies(other, loaded, kindCompare)) - service
	var sent float64
	for _, m := range loaded {
		if k := other[m.i].kind; k == kindCompare || k == kindRepeat {
			sent++
		}
	}
	if sent > 0 {
		v["server.result_cache_hit_ratio"] = (sent - float64(after-before)) / sent
	}
	// The untraced counterpart of the replay is the single client's
	// requests, so the difference is minus the handler time.
	v["trace.replay_minus_untraced_ms"] = -v["server.handler_ms"]
	work := 0.0
	for _, k := range []string{"stats.distances_ms", "community.louvain_ms", "stats.triangles_ms", "stats.evc_ms", "stats.structure_ms", "graph.json_decode_ms", "core.score_ms"} {
		work += v[k]
	}
	fmt.Fprintf(rc.log, "%d requests replayed, %d under two clients; distances+louvain %.0f%% of compare work\n",
		len(single), len(loaded), 100*(v["stats.distances_ms"]+v["community.louvain_ms"])/work)
	t := tally{attempted: len(warm) + len(single) + len(loaded), failed: failed}
	return t.result(perLayer, v), nil
}

// comparesExecuted reads the server's count of computed (uncached)
// compares from /healthz.
func (s *serveRun) comparesExecuted() (int64, error) {
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Compares int64 `json:"compares_executed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("decoding /healthz: %w", err)
	}
	return h.Compares, nil
}

// replay recomputes each sampled request as library calls, serially,
// inside one span per request, and returns each request's replay time.
// A replayed result that differs from the server's reply is a mismatch.
func (s *serveRun) replay(rec *recorder, samples []sample) (map[int]time.Duration, int) {
	groups := queryGroups(core.AllQueries())
	loaded := make(map[int]*graph.Graph)
	truth := func(op, t int) (*graph.Graph, error) {
		if g, ok := loaded[t]; ok {
			return g, nil // the server's dataset cache holds it too
		}
		spec, err := datasets.ByName(s.spec.truths[t])
		if err != nil {
			return nil, err
		}
		var g *graph.Graph
		rec.do("datasets.load", op, func() { g, _, err = datasets.LoadVia(nil, spec, s.spec.scale, datasetSeed) })
		loaded[t] = g
		return g, err
	}
	took := make(map[int]time.Duration, len(samples))
	mismatches := 0
	for _, m := range samples {
		if m.err != nil || m.status != http.StatusOK {
			continue
		}
		r := &s.seq[m.i]
		outer := rec.begin(spanRequest, m.i)
		ok, err := s.replayOne(rec, m, r, groups, truth)
		took[m.i] = rec.end(outer).dur()
		if err != nil || !ok {
			mismatches++
			fmt.Fprintf(s.rc.log, "replay of request %d (%s) differs from the reply (%v)\n", m.i, r.kind, err)
		}
	}
	return took, mismatches
}

func (s *serveRun) replayOne(rec *recorder, m sample, r *request, groups []queryGroup, truth func(op, t int) (*graph.Graph, error)) (bool, error) {
	switch r.kind {
	case kindCompare, kindRepeat:
		var syn graph.Graph
		var err error
		rec.do("graph.json_decode", m.i, func() { err = json.Unmarshal(r.parts[1], &syn) })
		if err != nil {
			return false, err
		}
		tg, err := truth(m.i, r.truth)
		if err != nil || r.kind == kindRepeat {
			return err == nil, err // a repeat is answered from the result cache
		}
		pt := profileByGroup(rec, m.i, tg, groups, core.SubSeed(r.seed, 0))
		ps := profileByGroup(rec, m.i, &syn, groups, core.SubSeed(r.seed, 1))
		var want pgb.QueryReport
		rec.do("core.score", m.i, func() {
			for _, q := range core.AllQueries() {
				v, higher := core.Score(q, pt, ps)
				row := pgb.QueryRow{Query: q.String(), Metric: q.Metric(), Error: v, HigherBetter: higher}
				row.TrueValue, row.SynValue, _ = core.ScalarValues(q, pt, ps)
				want.Rows = append(want.Rows, row)
			}
		})
		var got compareReply
		if err := json.Unmarshal(m.body, &got); err != nil {
			return false, err
		}
		return sameRows(got, want), nil
	default:
		tg, err := truth(m.i, r.truth)
		if err != nil {
			return false, err
		}
		gen, err := core.NewAlgorithm(r.mech)
		if err != nil {
			return false, err
		}
		syn, err := generate(rec, m.i, gen, tg, s.spec.eps, r.seed)
		if err != nil {
			return false, err
		}
		rec.do("graph.json_encode", m.i, func() { _, err = json.Marshal(syn) })
		var got generateReply
		if jerr := json.Unmarshal(m.body, &got); jerr != nil || err != nil {
			return false, fmt.Errorf("decode %v, encode %v", jerr, err)
		}
		return got.Fingerprint == fmt.Sprintf("%016x", syn.Fingerprint()), nil
	}
}
