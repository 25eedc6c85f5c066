package nn

import (
	"snapea/internal/metrics"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// This file is the dense convolution: im2col + GEMM. Every dense conv in
// the repo (the nn graph, calibration, head training, the experiments,
// and the perf ledger's dense reference) runs through ForwardGEMM. Each
// output accumulates bias first and then its taps in (c, ky, kx) order,
// one product at a time, so the result is bit-identical to a direct
// window-at-a-time loop over the same taps (the oracle in
// direct_test.go).

// Im2ColInto expands the input's convolution windows into a row-major
// matrix of shape (outH*outW) × (inCg*KH*KW) for the given batch element
// and channel group, writing into buf when its capacity suffices and
// allocating only otherwise. Out-of-bounds taps contribute zeros. Every
// slot is written, so a dirty buffer is safe to reuse.
func Im2ColInto(c *Conv2D, in *tensor.Tensor, n, group int, buf []float32) ([]float32, int, int) {
	s := in.Shape()
	inCg := c.InC / c.Groups
	oh := (s.H+2*c.PadH-c.KH)/c.StrideH + 1
	ow := (s.W+2*c.PadW-c.KW)/c.StrideW + 1
	rows := oh * ow
	cols := inCg * c.KH * c.KW
	out := buf
	if cap(out) < rows*cols {
		out = make([]float32, rows*cols)
	} else {
		out = out[:rows*cols]
	}
	ind := in.Data()
	cBase := group * inCg
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := (oy*ow + ox) * cols
			i := 0
			for ci := 0; ci < inCg; ci++ {
				base := (n*s.C + cBase + ci) * s.H * s.W
				for ky := 0; ky < c.KH; ky++ {
					iy := oy*c.StrideH - c.PadH + ky
					for kx := 0; kx < c.KW; kx++ {
						ix := ox*c.StrideW - c.PadW + kx
						if iy >= 0 && iy < s.H && ix >= 0 && ix < s.W {
							out[row+i] = ind[base+iy*s.W+ix]
						} else {
							out[row+i] = 0
						}
						i++
					}
				}
			}
		}
	}
	return out, rows, cols
}

// MatMul computes C = A×Bᵀ + bias where A is m×k (row-major), B is n×k
// (row-major) and bias has length n, writing the m×n result into dst.
// This layout matches im2col rows times kernel rows. Each accumulator
// starts at its bias and adds the k products in order.
func MatMul(a []float32, m, k int, b []float32, n int, bias, dst []float32) {
	if len(a) < m*k || len(b) < n*k || len(bias) < n || len(dst) < m*n {
		panic("nn: MatMul dimension mismatch")
	}
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			br := b[j*k : (j+1)*k]
			acc := bias[j]
			for t := 0; t < k; t++ {
				acc += ar[t] * br[t]
			}
			dst[i*n+j] = acc
		}
	}
}

// gemmScratch is one worker's reusable im2col and GEMM-result storage.
type gemmScratch struct {
	col []float32
	res []float32
}

// ForwardGEMM computes the convolution (including the fused ReLU) via
// im2col + GEMM; Forward is this on its single input. The (batch,
// group) units are independent — each writes disjoint output planes
// from read-only inputs — so they fan out across the worker pool with
// untouched per-unit arithmetic, which keeps the output bit-identical
// for every worker count. Each worker owns one scratch pair, so the hot
// loop allocates only once per worker instead of once per unit.
func (c *Conv2D) ForwardGEMM(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	os := c.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	outd := out.Data()
	outCg := c.OutC / c.Groups
	wd := c.Weights.Data()
	ksz := c.KernelSize()
	units := s.N * c.Groups
	scratch := make([]gemmScratch, parallel.Workers(units))
	var allocC, reuseC *metrics.Counter
	if metrics.Enabled() {
		// One batch of adds per forward pass (not per plane or window):
		// the totals are pure functions of the layer geometry, so the
		// deterministic snapshot cannot see the worker count.
		metrics.C("nn.conv.forward_calls", nil).Add(1)
		metrics.C("nn.conv.planes", nil).Add(int64(s.N) * int64(c.OutC))
		metrics.C("nn.conv.macs", nil).Add(int64(s.N) * int64(c.OutC) * int64(os.H) * int64(os.W) * int64(ksz))
		// Scratch-reuse accounting is inherently worker-dependent (one
		// buffer grows per worker, so more workers means more
		// first-touch allocations) — it lives in the runtime section of
		// the snapshot, outside the deterministic byte-identity
		// guarantee.
		allocC = metrics.RC("nn.gemm.scratch_allocs", nil)
		reuseC = metrics.RC("nn.gemm.scratch_reuse", nil)
	}
	parallel.For(units, func(w, u int) {
		n, g := u/c.Groups, u%c.Groups
		sc := &scratch[w]
		hadCol := cap(sc.col)
		cols, rows, k := Im2ColInto(c, in, n, g, sc.col)
		sc.col = cols
		if allocC != nil {
			if cap(sc.col) != hadCol {
				allocC.Add(1)
			} else {
				reuseC.Add(1)
			}
		}
		if cap(sc.res) < rows*outCg {
			sc.res = make([]float32, rows*outCg)
		}
		res := sc.res[:rows*outCg]
		wBase := g * outCg * ksz
		MatMul(cols, rows, k, wd[wBase:wBase+outCg*ksz], outCg, c.Bias[g*outCg:(g+1)*outCg], res)
		for kc := 0; kc < outCg; kc++ {
			dst := outd[(n*os.C+g*outCg+kc)*os.H*os.W:]
			for r := 0; r < rows; r++ {
				v := res[r*outCg+kc]
				if c.ReLU && v < 0 {
					v = 0
				}
				dst[r] = v
			}
		}
	})
	return out
}
