package stats

import (
	"math/rand"
	"sync"
	"testing"
)

// Kernels draw Scratch arenas from a process-wide pool; this test runs
// the pooled kernels concurrently from many goroutines and checks every
// result against precomputed serial answers. Run under -race (CI does),
// it verifies the §11 ownership rule — one goroutine per Scratch
// between get and Release, outputs copied out fresh — with real
// workloads rather than a synthetic pool exercise.
func TestScratchPoolConcurrentKernels(t *testing.T) {
	g := randomGraph(6, 300)
	wantTri := Triangles(g, 1, nil)
	_, _, wantACC := TriangleProfile(g, 1, nil)
	wantDiam := ExactDiameter(g, rand.New(rand.NewSource(3)))
	wantANF := ANFDistances(g, rand.New(rand.NewSource(17)), 1, nil)

	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				if got := Triangles(g, 2, nil); got != wantTri {
					t.Errorf("goroutine %d: triangles %g != %g", id, got, wantTri)
					return
				}
				if _, _, got := TriangleProfile(g, 2, nil); got != wantACC {
					t.Errorf("goroutine %d: ACC %g != %g", id, got, wantACC)
					return
				}
				if got := ExactDiameter(g, rand.New(rand.NewSource(3))); got != wantDiam {
					t.Errorf("goroutine %d: diameter %d != %d", id, got, wantDiam)
					return
				}
				got := ANFDistances(g, rand.New(rand.NewSource(17)), 2, nil)
				if got.Diameter != wantANF.Diameter || got.AvgPath != wantANF.AvgPath {
					t.Errorf("goroutine %d: ANF (%g, %g) != (%g, %g)",
						id, got.Diameter, got.AvgPath, wantANF.Diameter, wantANF.AvgPath)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
