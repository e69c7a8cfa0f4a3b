package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"pgb/internal/graph"
	"pgb/internal/par"
)

// HyperANF neighborhood-function estimation (Boldi, Rosa & Vigna 2011)
// for the Q7–Q9 distance group: instead of one BFS per source, every
// node carries a HyperLogLog counter of the ball around it and each
// synchronous round unions every counter with its neighbors' counters.
// After t rounds node v's counter estimates |B(v, t)|, the number of
// nodes within distance t, so the per-round increase of the summed
// estimates is the number of node pairs at each exact distance — enough
// to recover the diameter, the average path length, and the distance
// distribution in O(diameter · m) word operations total, independent of
// the number of BFS sources the exact path would need.
//
// Determinism contract (DESIGN.md §11): the only random input is one
// uint64 drawn from the caller's rng before any parallel work; per-node
// register initialisation hashes (node, seed) with a SplitMix64
// finalizer, rounds write disjoint per-node register blocks, and the
// per-round estimate reduction is a serial sum in node order — so the
// result is bit-identical at every worker count and for every budget
// nesting, and depends only on (graph, one rng draw).

const (
	// anfRegisters is the HyperLogLog register count m per node. 64
	// registers give a standard error of 1.04/√64 ≈ 13% on each ball
	// cardinality; relative errors on the aggregate distance statistics
	// are far smaller because per-node errors average out across the
	// serial sum of n estimates.
	anfRegisters = 64
	// anfWords is the per-node register block: 64 registers × 8 bits
	// packed into 8 uint64 words, unioned with SWAR byte-max.
	anfWords = anfRegisters / 8
	// anfAlpha is the HyperLogLog bias-correction constant for m=64.
	anfAlpha = 0.709
)

// ANFDistances estimates the path queries Q7–Q9 with HyperANF.
// Diameter is the last round on which any register changed — exact
// fixed-point detection, which lower-bounds the true diameter (a ball
// can gain members without raising any register). AvgPath and
// Distribution carry the HyperLogLog estimation error documented above.
// Worker sharding draws helpers from budget (DESIGN.md §2) and the
// result is bit-identical at every worker count.
func ANFDistances(g *graph.Graph, rng *rand.Rand, workers int, budget *par.Budget) DistanceStats {
	n := g.N()
	// One draw, before any parallel work, regardless of workers.
	seed := rng.Uint64()
	if n == 0 {
		return DistanceStats{}
	}

	s := getScratch()
	defer s.Release()
	cur := s.regsA(n * anfWords)
	next := s.regsB(n * anfWords)
	est := s.floats(n)

	// Initialise: every node's counter observes exactly itself. The hash
	// stream is keyed by (seed, node) through the same SplitMix64
	// finalizer the profile uses for sub-streams, so register contents
	// never depend on iteration or worker order.
	for i := range cur {
		cur[i] = 0
	}
	for v := 0; v < n; v++ {
		h := anfHash(seed, int32(v))
		j := h & (anfRegisters - 1)
		rho := anfRho(h >> 6)
		cur[v*anfWords+int(j>>3)] |= uint64(rho) << ((j & 7) * 8)
	}

	// nf[t] is the estimated neighborhood function: Σ_v |B(v, t)|.
	nf := []float64{sumEstimates(cur, est, n)}

	chunks := chunkByMass(g.Offsets(), 8*normWorkers(workers, n))
	workers = normWorkers(workers, len(chunks)-1)
	for round := 1; round <= n; round++ {
		anyChanged := anfRound(g, cur, next, est, chunks, workers, budget)
		if !anyChanged {
			break
		}
		cur, next = next, cur
		nf = append(nf, sumEstimates(cur, est, n))
	}

	// Telescoping: pairs at exact distance t ≈ nf[t] − nf[t−1]. The
	// estimator is not strictly monotone (linear-counting regime
	// crossings), so deltas clamp at zero.
	maxT := len(nf) - 1
	st := DistanceStats{Diameter: float64(maxT)}
	total := 0.0
	weighted := 0.0
	deltas := make([]float64, maxT+1)
	for t := 1; t <= maxT; t++ {
		d := nf[t] - nf[t-1]
		if d < 0 {
			d = 0
		}
		deltas[t] = d
		total += d
		weighted += float64(t) * d
	}
	if total > 0 {
		st.AvgPath = weighted / total
		st.Distribution = make([]float64, maxT+1)
		for t := 1; t <= maxT; t++ {
			st.Distribution[t] = deltas[t] / total
		}
	}
	return st
}

// anfRound advances every counter by one union round: next[v] = cur[v]
// ∪ cur[w] over neighbors w, writing each node's per-node estimate into
// est. Shards write disjoint next/est slots, so sharding never affects
// the values; the round reports whether any register changed (the
// fixed-point test that terminates the sweep).
func anfRound(g *graph.Graph, cur, next []uint64, est []float64, chunks []int, workers int, budget *par.Budget) bool {
	var changedBits uint32
	claim := par.Queue(len(chunks) - 1)
	budget.Do(workers-1, func() {
		changed := false
		for c, ok := claim(); ok; c, ok = claim() {
			for u := chunks[c]; u < chunks[c+1]; u++ {
				base := u * anfWords
				var acc [anfWords]uint64
				copy(acc[:], cur[base:base+anfWords])
				for _, v := range g.Neighbors(int32(u)) {
					vb := int(v) * anfWords
					for w := 0; w < anfWords; w++ {
						acc[w] = byteMax(acc[w], cur[vb+w])
					}
				}
				diff := uint64(0)
				for w := 0; w < anfWords; w++ {
					diff |= acc[w] ^ cur[base+w]
					next[base+w] = acc[w]
				}
				if diff != 0 {
					changed = true
				}
				est[u] = hllEstimate(&acc)
			}
		}
		if changed {
			atomic.StoreUint32(&changedBits, 1)
		}
	})
	return changedBits != 0
}

// sumEstimates reduces the per-node ball estimates serially in node
// order — float addition is not associative, so the reduction order is
// pinned to keep the result worker-count-invariant.
func sumEstimates(regs []uint64, est []float64, n int) float64 {
	sum := 0.0
	for v := 0; v < n; v++ {
		var block [anfWords]uint64
		copy(block[:], regs[v*anfWords:v*anfWords+anfWords])
		est[v] = hllEstimate(&block)
		sum += est[v]
	}
	return sum
}

// hllEstimate is the HyperLogLog cardinality estimate over one node's 64
// packed registers, with the standard small-range linear-counting
// correction (Flajolet et al. 2007).
func hllEstimate(regs *[anfWords]uint64) float64 {
	invSum := 0.0
	zeros := 0
	for _, word := range regs {
		for b := 0; b < 8; b++ {
			r := (word >> (b * 8)) & 0xFF
			if r == 0 {
				zeros++
			}
			invSum += 1.0 / float64(uint64(1)<<r)
		}
	}
	e := anfAlpha * anfRegisters * anfRegisters / invSum
	if e <= 2.5*anfRegisters && zeros > 0 {
		return anfRegisters * math.Log(anfRegisters/float64(zeros))
	}
	return e
}

// anfHash derives node v's register observation from the run seed with a
// SplitMix64 finalizer — the same stream-splitting construction the
// profile uses for per-pass RNGs (core.SubSeed), reproduced here so
// stats stays dependency-free.
func anfHash(seed uint64, v int32) uint64 {
	z := seed + (uint64(v)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// anfRho is the HyperLogLog ρ function over the 58 hash bits left after
// the 6-bit register index: one plus the number of leading zeros, in
// [1, 59] — always fits the 8-bit register.
func anfRho(w uint64) uint8 {
	lz := bits.LeadingZeros64(w) - (64 - 58)
	if lz > 58 {
		lz = 58 // w == 0: all 58 bits are zero
	}
	return uint8(lz + 1)
}

// byteMax returns the lane-wise unsigned maximum of the eight bytes of x
// and y (SWAR, no per-byte loop). With H masking the byte high bits,
// d = (x|H) − (y&^H) computes per byte (x₇+128) − y₇ over the low seven
// bits; every byte result stays in [1, 255], so no borrow crosses lanes
// and each high bit of d reads x₇ ≥ y₇. Combining with the true high
// bits: a lane satisfies x ≥ y iff xₕ > yₕ, or xₕ = yₕ and x₇ ≥ y₇.
func byteMax(x, y uint64) uint64 {
	const H = 0x8080808080808080
	d := (x | H) - (y &^ H)
	ge := (x & ^y & H) | (^(x ^ y) & d & H)
	// ge holds 0x80 per winning lane; (ge>>7)·0xFF widens each to a full
	// 0xFF byte — the per-lane products occupy disjoint bytes, so the
	// multiply carries nothing across lanes.
	mask := (ge >> 7) * 0xFF
	return (x & mask) | (y &^ mask)
}
