package pool

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 100
		var hits [n]int32
		ForEach(workers, n, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ForEach(4, 0, func(int, int) { t.Fatal("fn called for n=0") })
	ForEach(4, -3, func(int, int) { t.Fatal("fn called for n<0") })
}

func TestForEachSingleWorkerRunsInOrder(t *testing.T) {
	var order []int
	ForEach(1, 5, func(w, i int) {
		if w != 0 {
			t.Errorf("single worker called with w=%d", w)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("single-worker order = %v", order)
		}
	}
}

// The worker index is what per-worker state (a sweep worker's rig) is keyed
// by: every w is in [0, Width), and two calls with one w never overlap.
func TestForEachWorkerIndexIsExclusive(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		const n = 200
		width := Width(workers, n)
		busy := make([]int32, width)
		ForEach(workers, n, func(w, i int) {
			if w < 0 || w >= width {
				t.Errorf("workers=%d: index %d ran on worker %d, outside [0, %d)", workers, i, w, width)
				return
			}
			if atomic.AddInt32(&busy[w], 1) != 1 {
				t.Errorf("workers=%d: worker %d ran two calls at once", workers, w)
			}
			atomic.AddInt32(&busy[w], -1)
		})
	}
	if Width(0, 1) != 1 || Width(5, 3) != 3 || Width(2, 10) != 2 || Width(-1, 1000) != min(DefaultWorkers(), 1000) {
		t.Error("Width is not min(workers or DefaultWorkers(), n)")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
