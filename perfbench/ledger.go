package main

import (
	"runtime"
	"time"

	"snapea/internal/calib"
	"snapea/internal/metrics"
	"snapea/internal/nn"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// The kernel ledger replays a workload seed's timed inputs in-process
// through Graph.ForwardExec, with an exec hook that routes each ReLU conv
// through its LayerPlan exactly as Network.Forward does and times every
// LayerPlan.Run and Layer.Forward call. Next to each SnaPEA conv it also
// times Conv2D.ForwardGEMM on the same input, the repo's best dense
// kernel, as the honest reference.

// ledgerEntry accumulates one combo's per-forward times and MACs.
type ledgerEntry struct {
	conv, gemm, fc, other time.Duration
	execMACs, denseMACs   int64
}

func ledgerForward(net *snapea.Network, in *tensor.Tensor, e *ledgerEntry) {
	net.Model.Graph.ForwardExec(in, nil, func(node *nn.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
		if plan := net.Plans[node.Name]; plan != nil {
			t := time.Now()
			out, tr := plan.Run(ins[0], snapea.RunOpts{})
			e.conv += time.Since(t)
			e.execMACs += tr.TotalOps
			e.denseMACs += tr.DenseOps
			t = time.Now()
			node.Layer.(*nn.Conv2D).ForwardGEMM(ins[0])
			e.gemm += time.Since(t)
			return out, true
		}
		t := time.Now()
		out := node.Layer.Forward(ins)
		if _, ok := node.Layer.(*nn.FC); ok {
			e.fc += time.Since(t)
		} else {
			e.other += time.Since(t)
		}
		return out, true
	})
}

// runLedgerCombo times one warm-up forward, then every batch of the
// inputs, and returns the per-forward metrics of the combo.
func runLedgerCombo(net *snapea.Network, inputs []*tensor.Tensor, batch int) map[string]float64 {
	var forwards []*tensor.Tensor
	for i := 0; i+batch <= len(inputs); i += batch {
		if batch == 1 {
			forwards = append(forwards, inputs[i])
		} else {
			forwards = append(forwards, calib.Stack(inputs[i:i+batch]))
		}
	}
	ledgerForward(net, forwards[0], &ledgerEntry{})
	var e ledgerEntry
	for _, x := range forwards {
		ledgerForward(net, x, &e)
	}
	n := float64(len(forwards))
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / n }
	out := map[string]float64{
		"snapea.conv_ms": ms(e.conv),
		"nn.fc_ms":       ms(e.fc),
		"nn.other_ms":    ms(e.other),
		"nn.gemm_ms":     ms(e.gemm),
	}
	if e.conv > 0 {
		out["snapea.conv_gmacs"] = float64(e.execMACs) / e.conv.Seconds() / 1e9
	}
	if e.denseMACs > 0 {
		out["snapea.macs_skipped_frac"] = 1 - float64(e.execMACs)/float64(e.denseMACs)
	}
	return out
}

// addLedger runs the kernel ledger for every combo with the program's
// worker count and metrics enabled, as the serving process runs, and
// adds each combo's ratio of served infer_us_p50 (same model, mode and
// batch size, from the traced window's replies) to its ledger node time.
func (b *bench) addLedger(layers map[string]float64, traced []outcome) error {
	runtime.GOMAXPROCS(programProcs)
	metrics.Enable()
	for _, net := range []string{"squeezenet", "alexnet", "googlenet"} {
		m, err := buildServed(net)
		if err != nil {
			return err
		}
		f, err := loadFixture(b.root, m)
		if err != nil {
			return err
		}
		nets := map[string]*snapea.Network{
			exact:      snapea.Compile(m, nil, snapea.NegByMagnitude),
			predictive: compileFixture(m, f),
		}
		inputs := timedInputs(m, b.seed)
		for _, c := range ledgerCombos {
			if c.Net != net {
				continue
			}
			got := runLedgerCombo(nets[c.Mode], inputs, c.Batch)
			for k, v := range got {
				layers[c.prefix()+k] = v
			}
			var infer []float64
			for _, o := range traced {
				if o.ok() && o.T == (target{c.Net, c.Mode}) && o.Reply.BatchSize == c.Batch {
					infer = append(infer, float64(o.Reply.InferUS)/1e3)
				}
			}
			if node := got["snapea.conv_ms"] + got["nn.fc_ms"] + got["nn.other_ms"]; len(infer) > 0 && node > 0 {
				layers[c.prefix()+"infer_ratio"] = median(infer) / node
			}
		}
	}
	return nil
}
