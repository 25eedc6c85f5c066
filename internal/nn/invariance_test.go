package nn

import (
	"runtime"
	"testing"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// invarianceWorkerCounts is the worker-count grid the determinism tests
// sweep: serial, two, a deliberately awkward odd count, and whatever the
// machine defaults to.
func invarianceWorkerCounts() []int {
	counts := []int{1, 2, 7}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 7 {
		counts = append(counts, n)
	}
	return counts
}

// TestConvForwardWorkerInvariance asserts the dense convolution output
// is byte-identical for every worker count: parallelism must never
// change a result, only its wall-clock cost.
func TestConvForwardWorkerInvariance(t *testing.T) {
	c := randConv(t, 8, 12, 3, 1, 1, 2, true, 91)
	in := randInput(tensor.Shape{N: 3, C: 8, H: 13, W: 13}, 92)
	defer parallel.SetLimit(0)

	parallel.SetLimit(1)
	ref := c.Forward([]*tensor.Tensor{in}).Data()
	for _, workers := range invarianceWorkerCounts() {
		parallel.SetLimit(workers)
		got := c.Forward([]*tensor.Tensor{in}).Data()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: output[%d] = %g, serial %g", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestForwardGEMMWorkerInvariance asserts the im2col+GEMM path — with
// its per-worker reused buffers — matches the serial result exactly for
// every worker count.
func TestForwardGEMMWorkerInvariance(t *testing.T) {
	c := randConv(t, 6, 10, 5, 2, 2, 1, true, 93)
	in := randInput(tensor.Shape{N: 4, C: 6, H: 15, W: 15}, 94)
	defer parallel.SetLimit(0)

	parallel.SetLimit(1)
	ref := c.ForwardGEMM(in).Data()
	for _, workers := range invarianceWorkerCounts() {
		parallel.SetLimit(workers)
		got := c.ForwardGEMM(in).Data()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: output[%d] = %g, serial %g", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestIm2ColIntoReusesBuffer asserts the pooled path writes every slot
// (a dirty buffer must not leak stale values into padding zeros) and
// avoids reallocating when capacity suffices.
func TestIm2ColIntoReusesBuffer(t *testing.T) {
	c := randConv(t, 3, 4, 3, 1, 1, 1, true, 95)
	in := randInput(tensor.Shape{N: 1, C: 3, H: 7, W: 7}, 96)
	clean, rows, cols := Im2ColInto(c, in, 0, 0, nil)

	dirty := make([]float32, rows*cols)
	for i := range dirty {
		dirty[i] = 999
	}
	got, r2, c2 := Im2ColInto(c, in, 0, 0, dirty)
	if r2 != rows || c2 != cols {
		t.Fatalf("dims (%d,%d) vs (%d,%d)", r2, c2, rows, cols)
	}
	if &got[0] != &dirty[0] {
		t.Fatal("Im2ColInto reallocated despite sufficient capacity")
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("reused buffer diverges at %d: %g vs %g", i, got[i], clean[i])
		}
	}
}
