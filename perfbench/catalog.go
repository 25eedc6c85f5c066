package main

import "fmt"

// The metric catalog: every name the benchmark reports, with its unit.
// BENCHMARK.json lists the same names (a test holds the two together),
// and every result carries all of them, so a layer a workload does not
// exercise reports 0.

// metricDef is one catalog entry.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the --trace 0 metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"ok_frac", "fraction", "higher"},
	{"sweep_ok_frac", "fraction", "higher"},
	{"rss_peak_mb", "MB", "lower"},
	{"mac_reduction", "fraction", "higher"},
}

// ledgerCombo is one (net, mode, batch) of the kernel ledger: the three
// heavy nets at batch 1, what the interactive workload serves, and
// alexnet at batch 8, what the batched workload serves.
type ledgerCombo struct {
	Net, Mode string
	Batch     int
}

func (c ledgerCombo) prefix() string { return fmt.Sprintf("%s.%s.b%d.", c.Net, c.Mode, c.Batch) }

var ledgerCombos = []ledgerCombo{
	{"squeezenet", exact, 1}, {"squeezenet", predictive, 1},
	{"alexnet", exact, 1}, {"alexnet", predictive, 1},
	{"googlenet", exact, 1}, {"googlenet", predictive, 1},
	{"alexnet", exact, 8}, {"alexnet", predictive, 8},
}

// ledgerMetrics are reported once per ledger combo, after its prefix.
var ledgerMetrics = []metricDef{
	{"snapea.conv_ms", "ms", "lower"},
	{"snapea.conv_gmacs", "GMAC/s", "higher"},
	{"snapea.macs_skipped_frac", "fraction", "higher"},
	{"nn.fc_ms", "ms", "lower"},
	{"nn.other_ms", "ms", "lower"},
	{"nn.gemm_ms", "ms", "lower"},
	{"infer_ratio", "ratio", "lower"},
}

// perLayerFixed are the --trace 1 metrics outside the kernel ledger.
var perLayerFixed = []metricDef{
	{"cluster.hop_us_p50", "us", "lower"},
	{"cluster.hop_us_p99", "us", "lower"},
	{"cluster.attempts_per_req", "count", "lower"},
	{"cluster.replica_share_max", "fraction", "lower"},
	{"cluster.self_us_p50", "us", "lower"},
	{"client.self_us_p50", "us", "lower"},
	{"serve.handler_us_p50", "us", "lower"},
	{"serve.handler_us_p99", "us", "lower"},
	{"serve.queue_us_p50", "us", "lower"},
	{"serve.queue_us_p99", "us", "lower"},
	{"serve.infer_us_p50", "us", "lower"},
	{"serve.batch_mean", "count", "higher"},
	{"serve.mac_reduction_mean", "fraction", "higher"},
	{"serve.overhead_us_p50", "us", "lower"},
	{"serve.reject_frac", "fraction", "lower"},
	{"models.build_s", "s", "lower"},
	{"dataset.generate_s", "s", "lower"},
	{"calib.calibrate_s", "s", "lower"},
	{"train.features_s", "s", "lower"},
	{"train.head_s", "s", "lower"},
	{"snapea.compile_s", "s", "lower"},
	{"snapea.optimizer_s", "s", "lower"},
	{"snapea.checkpoint_s", "s", "lower"},
	{"snapea.checkpoint_saves", "count", "lower"},
	{"tune.span_cover_frac", "fraction", "higher"},
	{"trace.overhead_latency_p50_ms", "ms", "lower"},
	{"trace.overhead_throughput_rps", "1/s", "higher"},
	{"trace.spans_matched_frac", "fraction", "higher"},
}

// perLayer is the full --trace 1 catalog.
func perLayer() []metricDef {
	out := append([]metricDef(nil), perLayerFixed...)
	for _, c := range ledgerCombos {
		for _, m := range ledgerMetrics {
			out = append(out, metricDef{c.prefix() + m.Name, m.Unit, m.Better})
		}
	}
	return out
}

// complete returns the metrics of defs, taking each from got and
// reporting 0 for a layer this workload did not exercise. It fails on a
// name outside the catalog, which would be a bug in the benchmark.
func complete(defs []metricDef, got map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{got[d.Name], d.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			panic("perfbench: metric " + name + " is not in the catalog")
		}
	}
	return out
}
