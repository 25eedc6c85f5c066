package snapea

import (
	"fmt"

	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// FCPlan applies SnaPEA's exact early termination to a ReLU-fused
// fully-connected layer. The paper runs FC layers on the same PEs but
// leaves them dense; the identical algebra applies, though — an FC
// neuron is a 1×1 convolution window over non-negative inputs — so this
// is implemented as the natural extension (and the AblationFC bench
// quantifies what the paper left on the table; FC layers are ≈1% of CNN
// MACs, so the paper's choice costs little).
type FCPlan struct {
	Node     string
	FC       *nn.FC
	NegOrder NegOrder
	kernels  []ReorderedKernel
}

// NewFCPlan reorders every output neuron's weights sign-first. The FC
// must have a fused ReLU: without it a negative partial sum proves
// nothing about the output that downstream layers will see.
func NewFCPlan(node string, fc *nn.FC, negOrder NegOrder) *FCPlan {
	if !fc.ReLU {
		panic(fmt.Sprintf("snapea: FC plan for %q requires a fused ReLU", node))
	}
	p := &FCPlan{Node: node, FC: fc, NegOrder: negOrder, kernels: make([]ReorderedKernel, fc.Out)}
	w := fc.Weights.Data()
	for o := 0; o < fc.Out; o++ {
		p.kernels[o] = Reorder(w[o*fc.In:(o+1)*fc.In], Exact, negOrder)
	}
	return p
}

// Run executes the layer with early termination. The output is
// bit-identical to FC.Forward for non-negative inputs.
//
// Like the convolution engine's interior strips, execution is tap-major
// with lane batching: for each output neuron the batch rows are the
// lanes, every tap's weight and input index are loaded once and applied
// across the active worklist, and lanes retire out of the worklist as
// the sign check fires. Each lane's accumulator still receives its taps
// in the exact scalar order (bias first, one product added at a time),
// so outputs and traces are byte-identical to runFCReference.
func (p *FCPlan) Run(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	out, tr := p.fcSetup(in, opts)
	s := in.Shape()
	per := p.FC.In
	nOut := p.FC.Out
	ind := in.Data()
	outd := out.Data()
	acc := make([]float32, s.N)
	active := make([]int32, 0, s.N)
	for o := 0; o < nOut; o++ {
		rk := &p.kernels[o]
		ws, idx := rk.Weights, rk.Index
		nw := len(ws)
		bias := p.FC.Bias[o]
		for n := range acc {
			acc[n] = bias
		}
		i := 0
		// Positive region (FC plans are exact: no speculation prefix):
		// the sum only grows, so every lane stays live.
		for ; i < rk.PosEnd; i++ {
			w := ws[i]
			x := int(idx[i])
			for n := 0; n < s.N; n++ {
				acc[n] = acc[n] + w*ind[n*per+x]
			}
		}
		active = active[:0]
		for n := 0; n < s.N; n++ {
			active = append(active, int32(n))
		}
		// Negative suffix: sign check after every tap, worklist
		// compacted in place as lanes retire.
		for ; i < nw && len(active) > 0; i++ {
			w := ws[i]
			x := int(idx[i])
			na := active[:0]
			for _, n := range active {
				a := acc[n] + w*ind[int(n)*per+x]
				acc[n] = a
				if a < 0 {
					tr.SignZero++
					widx := int(n)*nOut + o
					outd[widx] = 0
					tr.TotalOps += int64(i + 1)
					if tr.Ops != nil {
						tr.Ops[widx] = int32(i + 1)
					}
					if opts.CollectPrediction {
						tr.TruthNeg++
					}
				} else {
					na = append(na, n)
				}
			}
			active = na
		}
		// Survivors ran the full kernel; a negative final sum (only
		// possible when there is no negative suffix) clamps to zero.
		for _, n := range active {
			a := acc[n]
			if a < 0 {
				a = 0
			}
			widx := int(n)*nOut + o
			outd[widx] = a
			tr.TotalOps += int64(nw)
			if tr.Ops != nil {
				tr.Ops[widx] = int32(nw)
			}
			if opts.CollectPrediction && a == 0 {
				tr.TruthNeg++
			}
		}
	}
	return out, tr
}

// fcSetup allocates the output tensor and trace shared by Run and the
// scalar reference.
func (p *FCPlan) fcSetup(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	per := s.C * s.H * s.W
	if per != p.FC.In {
		panic(fmt.Sprintf("snapea: FC plan %q expects %d inputs, got %v", p.Node, p.FC.In, s))
	}
	out := tensor.New(tensor.Shape{N: s.N, C: p.FC.Out, H: 1, W: 1})
	tr := &LayerTrace{
		Node:        p.Node,
		KernelSize:  p.FC.In,
		Batch:       s.N,
		OutC:        p.FC.Out,
		OutH:        1,
		OutW:        1,
		Windows:     int64(s.N) * int64(p.FC.Out),
		InputElems:  int64(s.N) * int64(per),
		WeightElems: int64(p.FC.Out) * int64(p.FC.In),
	}
	tr.DenseOps = tr.Windows * int64(tr.KernelSize)
	if opts.CollectWindows {
		tr.Ops = make([]int32, tr.Windows)
	}
	return out, tr
}

// EnableFC extends a compiled network with exact early termination for
// every ReLU-fused fully-connected layer (the classifier head has no
// ReLU and stays dense). Traces from these layers appear under their
// node names like convolution traces.
func (net *Network) EnableFC() {
	if net.FCPlans != nil {
		return
	}
	net.FCPlans = make(map[string]*FCPlan)
	for _, n := range net.Model.Graph.Nodes() {
		fc, ok := n.Layer.(*nn.FC)
		if !ok || !fc.ReLU {
			continue
		}
		net.FCPlans[n.Name] = NewFCPlan(n.Name, fc, net.NegOrder)
	}
}
