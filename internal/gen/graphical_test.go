package gen_test

import (
	"math/rand"
	"sort"
	"testing"

	"pgb/internal/datasets"
	"pgb/internal/gen"
)

// isGraphicalQuadratic is the textbook Erdős–Gallai check that rescans
// the tail for every k — O(n²) — kept as the oracle for the linear-time
// gen.IsGraphical.
func isGraphicalQuadratic(degrees []int) bool {
	n := len(degrees)
	d := append([]int(nil), degrees...)
	sort.Sort(sort.Reverse(sort.IntSlice(d)))
	sum := 0
	for _, x := range d {
		if x < 0 || x >= n {
			return false
		}
		sum += x
	}
	if sum%2 != 0 {
		return false
	}
	prefix := 0
	for k := 1; k <= n; k++ {
		prefix += d[k-1]
		rhs := k * (k - 1)
		for i := k; i < n; i++ {
			if d[i] < k {
				rhs += d[i]
			} else {
				rhs += k
			}
		}
		if prefix > rhs {
			return false
		}
	}
	return true
}

// randomSequence draws one degree sequence of length ≤ 16 from a mix of
// shapes: unconstrained entries (negatives and entries ≥ n included),
// near-complete sequences, and realised degree sequences with a one-unit
// nudge, which sit right on the Erdős–Gallai boundary.
func randomSequence(rng *rand.Rand) []int {
	n := rng.Intn(17)
	d := make([]int, n)
	if n == 0 {
		return d
	}
	switch rng.Intn(4) {
	case 0: // anything in [-1, n]
		for i := range d {
			d[i] = rng.Intn(n+2) - 1
		}
	case 1: // near-complete: every degree close to n-1
		for i := range d {
			d[i] = n - 1 - rng.Intn(3)
		}
	default: // a realised sequence, then possibly nudged by ±1
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					d[u]++
					d[v]++
				}
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			d[rng.Intn(n)] += rng.Intn(3) - 1
		}
	}
	return d
}

// TestIsGraphicalMatchesQuadratic: the linear-time check gives the
// oracle's answer on 200k seeded random sequences, both answers occurring
// often.
func TestIsGraphicalMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const trials = 200000
	graphical := 0
	for i := 0; i < trials; i++ {
		d := randomSequence(rng)
		want := isGraphicalQuadratic(d)
		if got := gen.IsGraphical(d); got != want {
			t.Fatalf("IsGraphical(%v) = %v, oracle says %v", d, got, want)
		}
		if want {
			graphical++
		}
	}
	if graphical < trials/10 || graphical > trials*9/10 {
		t.Fatalf("%d of %d sequences graphical: the mix no longer exercises both answers", graphical, trials)
	}
}

// TestIsGraphicalDatasets: on every dataset's degree sequence at scale 1,
// and on two nudged copies — the largest degree plus one (odd sum), and
// the two largest degrees plus one each (even sum) — the linear-time
// check agrees with the oracle.
func TestIsGraphicalDatasets(t *testing.T) {
	for _, spec := range append(datasets.All(), datasets.CaGrQC()) {
		d := spec.Load(1, 1).Degrees()
		order := make([]int, len(d))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return d[order[i]] > d[order[j]] })
		odd := append([]int(nil), d...)
		odd[order[0]]++
		even := append([]int(nil), odd...)
		even[order[1]]++
		for _, c := range []struct {
			name string
			d    []int
		}{{"realised", d}, {"max+1", odd}, {"top two+1", even}} {
			if got, want := gen.IsGraphical(c.d), isGraphicalQuadratic(c.d); got != want {
				t.Fatalf("%s %s: IsGraphical = %v, oracle says %v", spec.Name, c.name, got, want)
			}
		}
		if !gen.IsGraphical(d) {
			t.Fatalf("%s: realised degree sequence reported non-graphical", spec.Name)
		}
	}
}
