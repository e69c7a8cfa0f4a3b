package main

import (
	"sort"
	"strings"
	"time"
)

// unitOf names a metric and its unit, in the order the report prints.
type unitOf struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. "Item" is the unit of
// work a user waits for in bulk: a grid cell, or a served request.
var endToEnd = []unitOf{
	{"setup_s", "s"},            // median of the run's set-up repetitions
	{"peak_rss_mb", "MB"},       // process peak resident set
	{"throughput_per_s", "1/s"}, // grid cells or served requests completed per second
	{"alloc_kb_per_item", "KB"}, // heap allocated per grid cell or request
	{"latency_p50_ms", "ms"},    // median grid operation, or median fresh compare request
}

// mechanisms are the six benchmarked generators, in the paper's order.
var mechanisms = []string{"DP-dK", "TmF", "PrivSKG", "PrivHRG", "PrivGraph", "DGG"}

// perLayer lists the metrics of a traced run. Times are busy time per
// operation: per grid run on the grid workloads, per request on
// serve-mixed. A layer a workload does not reach reports 0.
var perLayer = func() []unitOf {
	l := []unitOf{
		{"stats.distances_ms", "ms"},
		{"stats.bfs_edge_visits", "count"},
		{"stats.bfs_medges_per_s", "Medges/s"},
		{"community.louvain_ms", "ms"},
		{"stats.triangles_ms", "ms"},
		{"stats.evc_ms", "ms"},
		{"stats.structure_ms", "ms"},
		{"algo.generate_ms", "ms"},
	}
	for _, m := range mechanisms {
		l = append(l, unitOf{"algo.generate_ms." + m, "ms"})
	}
	return append(l,
		unitOf{"algo.alloc_mb", "MB"},
		unitOf{"graph.json_decode_ms", "ms"},
		unitOf{"graph.json_encode_ms", "ms"},
		unitOf{"graph.snapshot_open_ms", "ms"},
		unitOf{"datasets.load_ms", "ms"},
		unitOf{"core.score_ms", "ms"},
		unitOf{"core.attributed_ms", "ms"},
		unitOf{"core.unattributed_ms", "ms"},
		unitOf{"par.speedup", "x"},
		unitOf{"par.cpu_utilization", "ratio"},
		unitOf{"server.service_ms.compare", "ms"},
		unitOf{"server.service_ms.generate", "ms"},
		unitOf{"server.wait_ms", "ms"},
		unitOf{"server.handler_ms", "ms"},
		unitOf{"server.result_cache_hit_ratio", "ratio"},
		unitOf{"trace.replay_minus_untraced_ms", "ms"},
	)
}()

// metrics builds a result's metric map from values keyed by name; every
// listed metric is present, a missing value reading 0.
func metrics(list []unitOf, values map[string]float64) map[string]metric {
	m := make(map[string]metric, len(list))
	for _, u := range list {
		m[u.name] = metric{Value: values[u.name], Unit: u.unit}
	}
	return m
}

// Span names. Each layer span wraps exactly one call into that layer;
// the wrapper spans group one operation's calls and their self time is
// the replay's own bookkeeping.
const (
	spanCell      = "core.cell"
	spanDataset   = "core.dataset"
	spanRequest   = "server.request"
	spanGenerate  = "algo.generate." // + mechanism
	spanDistances = "stats.distances"
)

// layerValues turns a replay's spans into per-layer values, dividing
// every total by per (operations or requests replayed).
func layerValues(spans []span, per float64) map[string]float64 {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names) // a fixed summation order
	v := make(map[string]float64)
	var attributed time.Duration
	for _, name := range names {
		d := self[name]
		switch name {
		case spanCell, spanDataset, spanRequest:
			continue
		}
		attributed += d
		if mech, ok := strings.CutPrefix(name, spanGenerate); ok {
			v["algo.generate_ms"] += ms(d) / per
			v["algo.generate_ms."+mech] += ms(d) / per
			continue
		}
		v[name+"_ms"] += ms(d) / per
	}
	var visits, allocated float64
	for _, s := range spans {
		switch {
		case s.Name == spanDistances:
			visits += s.Count
		case strings.HasPrefix(s.Name, spanGenerate):
			allocated += float64(s.Bytes)
		}
	}
	v["stats.bfs_edge_visits"] = visits / per
	if d := self[spanDistances]; d > 0 {
		v["stats.bfs_medges_per_s"] = visits / d.Seconds() / 1e6
	}
	v["algo.alloc_mb"] = allocated / per / (1 << 20)
	v["core.attributed_ms"] = ms(attributed) / per
	return v
}
