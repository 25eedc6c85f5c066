package nn

import (
	"snapea/internal/tensor"
)

// directForward is the direct convolution oracle: one window at a time,
// bias first, then the in-bounds taps in (c, ky, kx) order. Padded taps
// are skipped rather than multiplied by zero. Conv2D.Forward (im2col +
// GEMM) must match it bit for bit.
func directForward(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	os := c.OutShape([]tensor.Shape{s})
	out := tensor.New(os)
	for n := 0; n < s.N; n++ {
		for k := 0; k < c.OutC; k++ {
			c.forwardPlane(n, k, in, out, s, os)
		}
	}
	return out
}

// DirectForward exports the oracle to the external nn_test package,
// which can import the model builders.
var DirectForward = directForward

// forwardPlane computes output channel k of batch element n.
func (c *Conv2D) forwardPlane(n, k int, in, out *tensor.Tensor, s, os tensor.Shape) {
	inCg := c.InC / c.Groups
	outCg := c.OutC / c.Groups
	ind := in.Data()
	outd := out.Data()
	wd := c.Weights.Data()
	g := k / outCg
	cBase := g * inCg
	wBase := k * inCg * c.KH * c.KW
	for oy := 0; oy < os.H; oy++ {
		iy0 := oy*c.StrideH - c.PadH
		for ox := 0; ox < os.W; ox++ {
			ix0 := ox*c.StrideW - c.PadW
			acc := c.Bias[k]
			for ci := 0; ci < inCg; ci++ {
				cIn := cBase + ci
				inBase := ((n*s.C + cIn) * s.H) * s.W
				wBaseC := wBase + ci*c.KH*c.KW
				for ky := 0; ky < c.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= s.H {
						continue
					}
					rowBase := inBase + iy*s.W
					wRow := wBaseC + ky*c.KW
					for kx := 0; kx < c.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= s.W {
							continue
						}
						acc += ind[rowBase+ix] * wd[wRow+kx]
					}
				}
			}
			if c.ReLU && acc < 0 {
				acc = 0
			}
			outd[((n*os.C+k)*os.H+oy)*os.W+ox] = acc
		}
	}
}
