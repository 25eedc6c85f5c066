package snapea

import (
	"fmt"

	"snapea/internal/tensor"
)

// runReference is the retained scalar execution path: one gather-MAC
// per tap per window, windows in raster order, exactly the engine's
// pre-strip-mining behaviour. It exists as the ground truth the
// strip-mined interior kernel is validated against — the
// kernel-equivalence suite asserts Run and runReference produce
// byte-identical outputs and traces over random geometries, modes, and
// fault injections. It runs serially and records no metrics.
func (p *LayerPlan) runReference(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	if s.C != p.inShape.C || s.H != p.inShape.H || s.W != p.inShape.W {
		panic(fmt.Sprintf("snapea: %s compiled for %v, got %v", p.Node, p.inShape, s))
	}
	os := p.OutShape(s.N)
	out := tensor.New(os)
	tr := &LayerTrace{
		Node:       p.Node,
		KernelSize: p.Conv.KernelSize(),
		Batch:      s.N,
		OutC:       p.outC,
		OutH:       p.outH,
		OutW:       p.outW,
	}
	winPerImg := p.outC * p.outH * p.outW
	tr.Windows = int64(s.N * winPerImg)
	tr.DenseOps = tr.Windows * int64(tr.KernelSize)
	tr.InputElems = int64(s.N) * int64(s.C*s.H*s.W)
	tr.WeightElems = int64(p.outC) * int64(tr.KernelSize)
	if opts.CollectWindows {
		tr.Ops = make([]int32, tr.Windows)
	}
	for k := 0; k < p.outC; k++ {
		for n := 0; n < s.N; n++ {
			p.runKernelScalar(n, k, in, out, tr, tr, opts)
		}
	}
	if p.faults != nil {
		seq := p.runSeq.Add(1) - 1
		p.faults.CorruptActivations(fmt.Sprintf("%s#%d", p.Node, seq), out.Data())
	}
	return out, tr
}

// runKernelScalar computes all windows of output channel k for batch
// element n through the per-window scalar paths (window/windowBorder).
func (p *LayerPlan) runKernelScalar(n, k int, in, out *tensor.Tensor, tr, st *LayerTrace, opts RunOpts) {
	ck := &p.kernels[k]
	if ck.stuck {
		return
	}
	conv := p.Conv
	s := in.Shape()
	ind := in.Data()
	outd := out.Data()
	inBase := (n*s.C + int(ck.cBase)) * s.H * s.W
	kh, kw := conv.KH, conv.KW
	outRow := (n*p.outC + k) * p.outH * p.outW
	for oy := 0; oy < p.outH; oy++ {
		iy0 := oy*conv.StrideH - conv.PadH
		for ox := 0; ox < p.outW; ox++ {
			ix0 := ox*conv.StrideW - conv.PadW
			interior := iy0 >= 0 && ix0 >= 0 && iy0+kh <= s.H && ix0+kw <= s.W
			var val float32
			var ops int32
			if interior {
				val, ops = p.window(ck, ind, inBase+iy0*s.W+ix0, st, opts)
			} else {
				val, ops = p.windowBorder(ck, ind, inBase, iy0, ix0, s.H, s.W, st, opts)
			}
			idx := outRow + oy*p.outW + ox
			outd[idx] = val
			st.TotalOps += int64(ops)
			if tr.Ops != nil {
				tr.Ops[idx] = ops
			}
		}
	}
}

// window executes one interior convolution window with early activation.
// base is the input index of the window's top-left element in the
// kernel's channel group. It is the retained scalar reference the
// strip-mined interior kernel is validated against (runReference); the
// production interior path is runStrip in engine_strip.go.
func (p *LayerPlan) window(ck *compiledKernel, ind []float32, base int, st *LayerTrace, opts RunOpts) (float32, int32) {
	acc := ck.bias
	w, offs := ck.w, ck.offs
	i := 0
	// Speculation prefix.
	for ; i < ck.numSpec; i++ {
		acc += w[i] * ind[base+offs[i]]
	}
	if ck.numSpec > 0 && acc <= ck.th {
		st.SpecZero++
		if opts.CollectPrediction {
			full := acc
			for j := i; j < len(w); j++ {
				full += w[j] * ind[base+offs[j]]
			}
			if full < 0 {
				st.TruthNeg++
				st.SpecTN++
			} else {
				st.SpecFN++
			}
		}
		return 0, int32(ck.numSpec)
	}
	// Positive region: the sum only grows; no checks needed.
	for ; i < ck.posEnd; i++ {
		acc += w[i] * ind[base+offs[i]]
	}
	// Negative region: the sum only shrinks; first sign flip is final.
	for ; i < len(w); i++ {
		acc += w[i] * ind[base+offs[i]]
		if acc < 0 {
			i++
			st.SignZero++
			if opts.CollectPrediction {
				st.TruthNeg++
			}
			return 0, int32(i)
		}
	}
	if opts.CollectPrediction && acc < 0 {
		st.TruthNeg++
	}
	if acc < 0 {
		return 0, int32(i)
	}
	return acc, int32(i)
}

// runFCReference is the retained serial per-neuron path — the original
// Run loop, kept as the oracle the lane-batched Run is validated
// against (TestFCStripEquivalence).
func (p *FCPlan) runFCReference(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	out, tr := p.fcSetup(in, opts)
	s := in.Shape()
	per := p.FC.In
	ind := in.Data()
	outd := out.Data()
	for n := 0; n < s.N; n++ {
		x := ind[n*per : (n+1)*per]
		for o := 0; o < p.FC.Out; o++ {
			rk := &p.kernels[o]
			acc := p.FC.Bias[o]
			i := 0
			for ; i < rk.PosEnd; i++ {
				acc += rk.Weights[i] * x[rk.Index[i]]
			}
			for ; i < len(rk.Weights); i++ {
				acc += rk.Weights[i] * x[rk.Index[i]]
				if acc < 0 {
					i++
					tr.SignZero++
					acc = 0
					break
				}
			}
			if acc < 0 {
				acc = 0
			}
			widx := n*p.FC.Out + o
			outd[widx] = acc
			tr.TotalOps += int64(i)
			if tr.Ops != nil {
				tr.Ops[widx] = int32(i)
			}
			if opts.CollectPrediction && acc == 0 {
				tr.TruthNeg++
			}
		}
	}
	return out, tr
}
