package nn

import (
	"fmt"

	"snapea/internal/tensor"
)

// Conv2D is a standard 2-D convolution layer with optional grouped
// convolution (AlexNet uses groups=2) and an optional fused ReLU. The
// fused ReLU is the structure SnaPEA exploits: when ReLU is true, the
// layer's output is max(0, conv), so a provably-negative convolution
// window can be emitted as zero without finishing its MACs.
type Conv2D struct {
	InC, OutC  int
	KH, KW     int
	StrideH    int
	StrideW    int
	PadH, PadW int
	Groups     int
	ReLU       bool
	Weights    *tensor.Tensor // {OutC, InC/Groups, KH, KW}
	Bias       []float32      // len OutC
}

// NewConv2D allocates a convolution layer with zeroed parameters.
func NewConv2D(inC, outC, kh, kw, stride, pad, groups int, relu bool) *Conv2D {
	if groups < 1 {
		groups = 1
	}
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv channels %d/%d not divisible by groups %d", inC, outC, groups))
	}
	return &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		Groups: groups, ReLU: relu,
		Weights: tensor.New(tensor.Shape{N: outC, C: inC / groups, H: kh, W: kw}),
		Bias:    make([]float32, outC),
	}
}

// KernelSize returns the number of weights in one kernel (one output
// channel): Cin/Groups × KH × KW — the paper's Cin,l × Dk × Dk.
func (c *Conv2D) KernelSize() int { return (c.InC / c.Groups) * c.KH * c.KW }

// Kernel returns the flattened weights of output channel k in (c, kh, kw)
// order, aliasing the layer's weight storage.
func (c *Conv2D) Kernel(k int) []float32 {
	sz := c.KernelSize()
	return c.Weights.Data()[k*sz : (k+1)*sz]
}

// ParamCount returns the number of learnable parameters.
func (c *Conv2D) ParamCount() int { return c.OutC*c.KernelSize() + c.OutC }

// OutShape implements Layer.
func (c *Conv2D) OutShape(ins []tensor.Shape) tensor.Shape {
	in := oneShape(ins)
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: conv expects %d input channels, got shape %v", c.InC, in))
	}
	oh := (in.H+2*c.PadH-c.KH)/c.StrideH + 1
	ow := (in.W+2*c.PadW-c.KW)/c.StrideW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output collapsed for input %v (k=%dx%d s=%d p=%d)", in, c.KH, c.KW, c.StrideH, c.PadH))
	}
	return tensor.Shape{N: in.N, C: c.OutC, H: oh, W: ow}
}

// Forward implements Layer: the im2col + GEMM convolution of its single
// input (ForwardGEMM).
func (c *Conv2D) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	return c.ForwardGEMM(one(ins))
}

// PreActivation computes the convolution without the fused ReLU. The
// negative-fraction calibration and Figure 1 measure this quantity.
func (c *Conv2D) PreActivation(in *tensor.Tensor) *tensor.Tensor {
	relu := c.ReLU
	c.ReLU = false
	out := c.Forward([]*tensor.Tensor{in})
	c.ReLU = relu
	return out
}
