package experiments

import (
	"fmt"

	"snapea/internal/faults"
	"snapea/internal/nn"
	"snapea/internal/report"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
	"snapea/internal/train"
)

// DefaultFaultBase is the baseline deployment-fault model the sweep
// scales when Config.Faults is zero: weight-buffer soft errors dominate
// (weights sit in SRAM for the whole run), activation upsets are rarer
// (each value lives for one layer), and an occasional dead lane.
func DefaultFaultBase(seed uint64) faults.Config {
	return faults.Config{
		Seed:          seed,
		WeightBitFlip: 1e-4,
		ActBitFlip:    1e-5,
		StuckZero:     2e-3,
		ThJitter:      1e-2,
		NJitter:       1e-3,
	}
}

// FaultPoint is one (network, fault-scale, execution-mode) measurement.
type FaultPoint struct {
	Network string
	Scale   float64 // multiplier applied to the base fault config
	Mode    string  // "dense", "exact", or "predictive"
	Acc     float64 // test accuracy under faults
	AccDrop float64 // clean-test accuracy − Acc
	// MACRed is the fraction of dense MACs the engine skipped (0 for
	// the dense mode) — faults that break weight-sign monotonicity can
	// erode the exact mode's guarantee and shift this.
	MACRed float64
	Faults faults.Stats
}

// FaultSweepResult is the fault-injection degradation sweep.
type FaultSweepResult struct {
	Base   faults.Config
	Scales []float64
	Modes  []string
	Points []FaultPoint
}

// point returns the measurement for (network, scale, mode), or nil.
func (r *FaultSweepResult) point(network string, scale float64, mode string) *FaultPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Network == network && p.Scale == scale && p.Mode == mode {
			return p
		}
	}
	return nil
}

// FaultSweep measures how the three execution modes — the dense nn
// reference, SnaPEA's exact mode, and the tuned predictive mode — degrade
// as deployment-time fault intensity grows. Speculation parameters are
// tuned on a clean machine (the realistic deployment: Algorithm 1 runs
// offline, faults strike the accelerator later); every (scale, mode)
// cell gets its own deterministic injector, so the whole sweep is
// reproducible under a fixed seed.
func (s *Suite) FaultSweep() FaultSweepResult {
	base := s.Cfg.Faults
	if !base.Enabled() {
		base = DefaultFaultBase(s.Cfg.Seed)
	}
	if base.Seed == 0 {
		base.Seed = s.Cfg.Seed
	}
	res := FaultSweepResult{
		Base:   base,
		Scales: []float64{0, 0.1, 1, 10, 100},
		Modes:  []string{"dense", "exact", "predictive"},
	}
	for _, name := range s.Cfg.Networks {
		p := s.Prepared(name)
		tuned := s.Predictive(name, s.Cfg.Epsilon)
		for _, scale := range res.Scales {
			for _, mode := range res.Modes {
				inj := faults.New(base.Scale(scale))
				pt := s.faultPoint(p, tuned, name, mode, scale, inj)
				res.Points = append(res.Points, pt)
			}
		}
		s.logf("[%s] fault sweep done (%d scales × %d modes)", name, len(res.Scales), len(res.Modes))
	}
	s.renderFaultSweep(&res)
	return res
}

// faultPoint evaluates one cell of the sweep.
func (s *Suite) faultPoint(p *Prepared, tuned *PredRun, name, mode string, scale float64, inj *faults.Injector) FaultPoint {
	pt := FaultPoint{Network: name, Scale: scale, Mode: mode}
	var feats [][]float32
	switch mode {
	case "dense":
		feats = denseFaultyFeatures(p, inj)
	case "exact", "predictive":
		var params map[string]snapea.LayerParams
		if mode == "predictive" {
			params = tuned.Opt.Params
		}
		net := snapea.CompileFaulty(p.Model, params, snapea.NegByMagnitude, inj)
		trace := snapea.NewNetTrace()
		feats = make([][]float32, len(p.TestImgs))
		for i, img := range p.TestImgs {
			feats[i] = net.Feature(img, snapea.RunOpts{}, trace)
		}
		total, dense := trace.Totals()
		if dense > 0 {
			pt.MACRed = 1 - float64(total)/float64(dense)
		}
	default:
		panic("experiments: unknown fault-sweep mode " + mode)
	}
	pt.Acc = train.Accuracy(p.Model.Head, feats, p.TestLbls)
	pt.AccDrop = p.BaseTestAcc - pt.Acc
	pt.Faults = inj.Stats()
	return pt
}

// denseFaultyFeatures runs the unmodified nn graph under the same fault
// model the accelerator sees: convolution weight buffers bit-flipped and
// dead output channels zeroed (via per-node corrupted clones — the
// model's own weights are never touched), and every convolution output
// corrupted in the activation buffer before downstream layers read it.
func denseFaultyFeatures(p *Prepared, inj *faults.Injector) [][]float32 {
	m := p.Model
	var clones map[string]*nn.Conv2D
	if inj != nil {
		clones = make(map[string]*nn.Conv2D)
		for _, n := range m.Graph.Nodes() {
			conv, ok := n.Layer.(*nn.Conv2D)
			if !ok {
				continue
			}
			c := *conv
			c.Weights = tensor.New(conv.Weights.Shape())
			copy(c.Weights.Data(), conv.Weights.Data())
			c.Bias = append([]float32(nil), conv.Bias...)
			ksz := c.KernelSize()
			w := c.Weights.Data()
			for k := 0; k < c.OutC; k++ {
				inj.FlipWeightBits(fmt.Sprintf("%s/k%d", n.Name, k), w[k*ksz:(k+1)*ksz])
			}
			for _, k := range inj.StuckKernels(n.Name, c.OutC) {
				for i := k * ksz; i < (k+1)*ksz; i++ {
					w[i] = 0
				}
				c.Bias[k] = 0
			}
			clones[n.Name] = &c
		}
	}
	// A cloned conv also corrupts its output activations before
	// downstream nodes and the feature tap read them.
	seq := make(map[string]int)
	exec := func(node *nn.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
		c, ok := clones[node.Name]
		if !ok {
			return nil, false
		}
		out := c.Forward(ins)
		inj.CorruptActivations(fmt.Sprintf("%s#%d", node.Name, seq[node.Name]), out.Data())
		seq[node.Name]++
		return out, true
	}
	feats := make([][]float32, len(p.TestImgs))
	for i, img := range p.TestImgs {
		var feat []float32
		m.Graph.ForwardExec(img, func(name string, t *tensor.Tensor) {
			if name == m.FeatureNode {
				feat = append([]float32(nil), t.Data()...)
			}
		}, exec)
		feats[i] = feat
	}
	return feats
}

// renderFaultSweep prints the accuracy and MAC-reduction degradation
// tables, one sparkline-annotated row per (network, mode).
func (s *Suite) renderFaultSweep(res *FaultSweepResult) {
	if s.Cfg.Out == nil {
		return
	}
	headers := []string{"Network", "Mode"}
	for _, sc := range res.Scales {
		headers = append(headers, fmt.Sprintf("%gx", sc))
	}
	headers = append(headers, "curve")

	acc := report.Table{
		Title: fmt.Sprintf("Fault sweep: test accuracy vs fault intensity (base: wflip=%.0e aflip=%.0e stuck=%.0e, seed %d)",
			res.Base.WeightBitFlip, res.Base.ActBitFlip, res.Base.StuckZero, res.Base.Seed),
		Headers: headers,
	}
	mac := report.Table{
		Title:   "Fault sweep: MAC reduction vs fault intensity (engine modes; dense ≡ 0%)",
		Headers: headers,
	}
	for _, name := range s.Cfg.Networks {
		for _, mode := range res.Modes {
			accRow := []string{name, mode}
			macRow := []string{name, mode}
			var accs, macs []float64
			for _, sc := range res.Scales {
				p := res.point(name, sc, mode)
				if p == nil {
					accRow = append(accRow, "-")
					macRow = append(macRow, "-")
					continue
				}
				accRow = append(accRow, report.F(p.Acc, 3))
				macRow = append(macRow, report.Pct(p.MACRed))
				accs = append(accs, p.Acc)
				macs = append(macs, p.MACRed)
			}
			acc.Add(append(accRow, report.Spark(accs))...)
			if mode != "dense" {
				mac.Add(append(macRow, report.Spark(macs))...)
			}
		}
	}
	acc.Render(s.Cfg.Out)
	s.blank()
	mac.Render(s.Cfg.Out)
}
