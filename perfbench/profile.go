package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"pgb/internal/core"
	"pgb/internal/graph"
)

// queryGroup is the subset of selected queries one profile pass answers.
type queryGroup struct {
	id      core.GroupID
	span    string
	queries []core.QueryID
}

// groupSpans names the span of each built-in profile pass.
var groupSpans = map[core.GroupID]string{
	core.GroupStructure:  "stats.structure",
	core.GroupTriangles:  "stats.triangles",
	core.GroupDistances:  spanDistances,
	core.GroupCommunity:  "community.louvain",
	core.GroupCentrality: "stats.evc",
}

// queryGroups splits queries by profile pass, in pass order.
func queryGroups(queries []core.QueryID) []queryGroup {
	byID := make(map[core.GroupID]*queryGroup)
	var out []*queryGroup
	for _, q := range queries {
		spec, _ := core.QuerySpecOf(q)
		g, ok := byID[spec.Group]
		if !ok {
			g = &queryGroup{id: spec.Group, span: groupSpans[spec.Group]}
			byID[spec.Group] = g
			out = append(out, g)
		}
		g.queries = append(g.queries, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	groups := make([]queryGroup, len(out))
	for i, g := range out {
		groups[i] = *g
	}
	return groups
}

// profileByGroup computes g's profile one pass per call, serially, with
// a span around each call. Every pass draws its random stream from the
// seed and its own group, so the merged profile equals the one a single
// ComputeProfileSeeded call over all the groups returns.
func profileByGroup(rec *recorder, op int, g *graph.Graph, groups []queryGroup, seed int64) *core.Profile {
	merged := &core.Profile{}
	for _, grp := range groups {
		opt := core.ProfileOptions{Queries: grp.queries, Serial: true}
		var p *core.Profile
		s := rec.do(grp.span, op, func() { p = core.ComputeProfileSeeded(g, opt, seed) })
		if grp.id == core.GroupDistances {
			s.Count = bfsEdgeVisits(g)
		}
		mergeGroup(merged, p, grp.id)
	}
	return merged
}

// bfsEdgeVisits is the BFS work of a distance pass under the default
// profile options: sources × 2m, where every node is a source up to the
// exact-path limit and a fixed sample of nodes above it.
func bfsEdgeVisits(g *graph.Graph) float64 {
	const exactLimit, samples = 2000, 64 // core.ProfileOptions defaults
	sources := g.N()
	if sources > exactLimit {
		sources = samples
	}
	return float64(sources) * 2 * float64(g.M())
}

// mergeGroup copies the fields one pass fills from src into dst.
func mergeGroup(dst, src *core.Profile, id core.GroupID) {
	switch id {
	case core.GroupStructure:
		dst.NumNodes, dst.NumEdges = src.NumNodes, src.NumEdges
		dst.AvgDegree, dst.DegreeVariance = src.AvgDegree, src.DegreeVariance
		dst.DegreeDist, dst.Assortativity = src.DegreeDist, src.Assortativity
	case core.GroupTriangles:
		dst.Triangles, dst.GCC, dst.ACC = src.Triangles, src.GCC, src.ACC
	case core.GroupDistances:
		dst.Diameter, dst.AvgPath, dst.DistanceDist = src.Diameter, src.AvgPath, src.DistanceDist
	case core.GroupCommunity:
		dst.CommunityLabels, dst.Modularity = src.CommunityLabels, src.Modularity
	case core.GroupCentrality:
		dst.EVC = src.EVC
	}
}

// gridDigest digests a grid's per-(cell, query) errors. Timing fields
// are not part of it; a failed cell or a non-finite value is an error.
func gridDigest(res *core.Results) (string, error) {
	for _, c := range res.Cells {
		if c.Err != nil {
			return "", fmt.Errorf("cell %s/%s/%g failed: %v", c.Algorithm, c.Dataset, c.Epsilon, c.Err)
		}
	}
	return digestRecords(res.ErrorRecords())
}

// digestRecords hashes each record's coordinates and the exact bits of
// its error and spread.
func digestRecords(recs []core.ErrorRecord) (string, error) {
	if len(recs) == 0 {
		return "", fmt.Errorf("no results")
	}
	h := sha256.New()
	for _, r := range recs {
		if !finite(r.Error) || !finite(r.StdDev) {
			return "", fmt.Errorf("non-finite %s on %s/%s/%g: %g ± %g", r.Query, r.Algorithm, r.Dataset, r.Epsilon, r.Error, r.StdDev)
		}
		fmt.Fprintf(h, "%s|%s|%g|%d|%x|%x\n", r.Algorithm, r.Dataset, r.Epsilon, int(r.Query),
			math.Float64bits(r.Error), math.Float64bits(r.StdDev))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// digestCheck decides whether an operation's digest is right: it must
// equal the digest pinned for the workload seed, or, for a seed with no
// pin, the digest of the run's first operation.
type digestCheck struct {
	want   string
	pinned bool
}

func newDigestCheck(pins map[int64]string, seed int64) *digestCheck {
	want, ok := pins[seed]
	return &digestCheck{want: want, pinned: ok}
}

func (c *digestCheck) ok(got string, log io.Writer) bool {
	if c.want == "" {
		c.want = got
	}
	if got != c.want {
		kind := "first operation's"
		if c.pinned {
			kind = "pinned"
		}
		fmt.Fprintf(log, "digest %s differs from the %s digest %s\n", got, kind, c.want)
		return false
	}
	return true
}
