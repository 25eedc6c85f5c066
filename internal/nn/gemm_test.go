package nn

import (
	"fmt"
	"math"
	"testing"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

func TestMatMulSmall(t *testing.T) {
	// A = [1 2; 3 4] (2×2), B rows = [5 6], [7 8] → C = A×Bᵀ + bias
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	bias := []float32{0.5, -1}
	dst := make([]float32, 4)
	MatMul(a, 2, 2, b, 2, bias, dst)
	want := []float32{17.5, 22, 39.5, 52}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("matmul[%d] = %g want %g", i, dst[i], want[i])
		}
	}
}

func TestMatMulPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul([]float32{1}, 2, 2, []float32{1, 2}, 1, []float32{0}, make([]float32, 2))
}

// assertBitwise fails unless got and want hold the same float32 bit
// patterns.
func assertBitwise(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: len %d vs oracle %d", label, len(g), len(w))
	}
	for i := range w {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			t.Fatalf("%s: output[%d] = %v (%#08x), oracle %v (%#08x)",
				label, i, g[i], math.Float32bits(g[i]), w[i], math.Float32bits(w[i]))
		}
	}
}

// TestGEMMMatchesDirect checks the dense conv against the direct oracle
// bit for bit over the geometries the evaluated networks use (11×11/4
// AlexNet stem, 7×7/2 SqueezeNet stem, grouped 5×5, 3×3 same-pad,
// pointwise 1×1).
func TestGEMMMatchesDirect(t *testing.T) {
	cases := []struct {
		name                          string
		inC, outC, k, stride, pad, gr int
		relu                          bool
		hw                            int
	}{
		{"alexnet-stem", 3, 8, 11, 4, 0, 1, true, 23},
		{"squeezenet-stem", 3, 8, 7, 2, 0, 1, true, 17},
		{"grouped", 8, 8, 5, 1, 2, 2, true, 9},
		{"same-pad", 6, 10, 3, 1, 1, 1, true, 8},
		{"pointwise", 12, 6, 1, 1, 0, 1, false, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := randConv(t, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.gr, tc.relu, 77)
			in := randInput(tensor.Shape{N: 2, C: tc.inC, H: tc.hw, W: tc.hw}, 78)
			assertBitwise(t, tc.name, c.ForwardGEMM(in), directForward(c, in))
		})
	}
}

// TestConvForwardMatchesDirectBitwise sweeps the geometry corners of the
// dense conv — strides 1–3, pads 0–2, groups 1 and 2, square and
// rectangular kernels, batch 1 and 3, ReLU on and off — at 1, 2 and 4
// workers, over signed inputs, and requires Forward to reproduce the
// direct oracle's float32 bits exactly.
func TestConvForwardMatchesDirectBitwise(t *testing.T) {
	defer parallel.SetLimit(0)
	kernels := [][2]int{{3, 3}, {1, 1}, {5, 3}, {2, 4}}
	seed := uint64(500)
	for _, k := range kernels {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 2; pad++ {
				for _, groups := range []int{1, 2} {
					for _, batch := range []int{1, 3} {
						for _, relu := range []bool{true, false} {
							seed++
							c := NewConv2D(4, 6, k[0], k[1], stride, pad, groups, relu)
							rng := tensor.NewRNG(seed)
							tensor.FillNorm(c.Weights, rng, 0, 0.5)
							for i := range c.Bias {
								c.Bias[i] = float32(rng.Norm() * 0.1)
							}
							in := tensor.New(tensor.Shape{N: batch, C: 4, H: 9, W: 10})
							tensor.FillUniform(in, rng, -1, 1)
							want := directForward(c, in)
							for _, workers := range []int{1, 2, 4} {
								parallel.SetLimit(workers)
								label := fmt.Sprintf("k%dx%d s%d p%d g%d n%d relu=%v workers=%d",
									k[0], k[1], stride, pad, groups, batch, relu, workers)
								assertBitwise(t, label, c.Forward([]*tensor.Tensor{in}), want)
							}
						}
					}
				}
			}
		}
	}
}

// TestConvNegZeroBiasPaddedBorder pins the one input class where the
// dense conv and the direct oracle differ: a literal -0 bias. The
// oracle skips padded taps, so a window whose in-bounds products are
// all -0 keeps its -0 bias; the GEMM adds +0 for each padded tap with a
// non-negative weight, and -0 + +0 = +0. The two outputs still compare
// equal as numbers, and no other window may differ.
func TestConvNegZeroBiasPaddedBorder(t *testing.T) {
	c := NewConv2D(1, 1, 3, 3, 1, 1, 1, true)
	w := c.Weights.Data()
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			// Positive on the taps the top-left window pads, negative on
			// the taps it keeps.
			if ky == 0 || kx == 0 {
				w[ky*3+kx] = 0.5
			} else {
				w[ky*3+kx] = -0.25
			}
		}
	}
	c.Bias[0] = float32(math.Copysign(0, -1))
	in := tensor.New(tensor.Shape{N: 1, C: 1, H: 4, W: 4}) // all +0
	got := c.Forward([]*tensor.Tensor{in}).Data()
	want := directForward(c, in).Data()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %v, oracle %v", i, got[i], want[i])
		}
		gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
		if i == 0 {
			if !math.Signbit(float64(want[i])) || math.Signbit(float64(got[i])) {
				t.Fatalf("top-left window: got %#08x, oracle %#08x; want +0 vs -0", gb, wb)
			}
			continue
		}
		if gb != wb {
			t.Fatalf("output[%d] = %#08x, oracle %#08x: only the -0 corner may differ", i, gb, wb)
		}
	}
}

func TestIm2ColShapeAndZeroPadding(t *testing.T) {
	c := NewConv2D(2, 2, 3, 3, 1, 1, 1, false)
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 4, W: 4})
	in.Fill(1)
	cols, rows, k := Im2ColInto(c, in, 0, 0, nil)
	if rows != 16 || k != 18 {
		t.Fatalf("im2col dims %d×%d", rows, k)
	}
	if len(cols) != rows*k {
		t.Fatalf("len %d", len(cols))
	}
	// Corner window (0,0): taps outside the image must be zero — for a
	// 3×3 kernel at the top-left corner, 5 of 9 taps per channel are
	// out of bounds.
	zeros := 0
	for i := 0; i < k; i++ {
		if cols[i] == 0 {
			zeros++
		}
	}
	if zeros != 10 { // 5 per channel × 2 channels
		t.Fatalf("corner zeros %d, want 10", zeros)
	}
}
