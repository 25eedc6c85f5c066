package nn_test

import (
	"math"
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// TestGraphForwardMatchesDirectOracle runs each calibrated network (so
// conv biases are non-zero) twice on one dataset image: through
// ForwardTap (Graph.Forward with a tap; the im2col + GEMM conv) and
// through ForwardExec with every conv routed to the direct oracle. Every
// node's output, the graph output included, must be bit-identical.
func TestGraphForwardMatchesDirectOracle(t *testing.T) {
	for _, name := range []string{"tinynet", "alexnet", "googlenet", "squeezenet"} {
		t.Run(name, func(t *testing.T) {
			m, err := models.Build(name, models.Options{Seed: 123})
			if err != nil {
				t.Fatal(err)
			}
			samples := dataset.Generate(3, dataset.Config{HW: m.InputShape.H, Seed: 5})
			calib.Calibrate(m, []*tensor.Tensor{samples[1].Image, samples[2].Image})
			img := samples[0].Image
			want := make(map[string]*tensor.Tensor)
			wantOut := m.Graph.ForwardExec(img, func(node string, out *tensor.Tensor) {
				want[node] = out
			}, func(node *nn.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
				if c, ok := node.Layer.(*nn.Conv2D); ok {
					return nn.DirectForward(c, ins[0]), true
				}
				return nil, false
			})
			got := make(map[string]*tensor.Tensor)
			gotOut := m.Graph.ForwardTap(img, func(node string, out *tensor.Tensor) {
				got[node] = out
			})
			if !sameBits(gotOut, wantOut) {
				t.Fatal("graph output differs from the direct-oracle run")
			}
			for _, n := range m.Graph.Nodes() {
				if !sameBits(got[n.Name], want[n.Name]) {
					t.Fatalf("node %s differs from the direct-oracle run", n.Name)
				}
			}
		})
	}
}

func sameBits(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if a.Shape() != b.Shape() || len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}
