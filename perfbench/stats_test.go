package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestTailIndex(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, -1},
		{1, 0},   // too small for any tail: the median
		{15, 7},  // n-11 = 4 is below the median index 7
		{21, 10}, // exactly 10 beyond the median
		{200, 189},
		{1100, 1088}, // p99 is index 1088 with 11 beyond
		{1200, 1187}, // p99: 12 beyond
	} {
		if got := tailIndex(c.n); got != c.want {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := 11; n < 5000; n++ {
		i := tailIndex(n)
		if beyond := n - 1 - i; beyond < minBeyond && i > medianIndex(n) {
			t.Fatalf("n=%d: index %d has only %d samples beyond it", n, i, beyond)
		}
		if p99 := int(math.Ceil(0.99*float64(n))) - 1; i > p99 {
			t.Fatalf("n=%d: index %d is above p99 (%d)", n, i, p99)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed: summarize must sort
	}
	s := summarize(xs)
	// 100 samples: p99 would leave 1 beyond, so the tail is index 89
	// (the 90th percentile, 10 beyond).
	if s.N != 100 || s.P50 != 50 || s.Tail != 90 || s.TailPc != 90 {
		t.Fatalf("summarize = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one", []span{{Start: 10, End: 30}}, 80},
		{"disjoint", []span{{Start: 10, End: 30}, {Start: 50, End: 60}}, 70},
		{"overlapping hedge", []span{{Start: 10, End: 50}, {Start: 40, End: 70}}, 40},
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"clipped", []span{{Start: -20, End: 10}, {Start: 95, End: 130}}, 85},
		{"outside", []span{{Start: 120, End: 130}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestKeepQuiet(t *testing.T) {
	// Four 100-ns slices; the second is stolen and the fourth a little.
	parts := []windowSlice{
		{start: 0, end: 100, steal: 0, cpu: 1},
		{start: 100, end: 200, steal: 0.4, cpu: 2},
		{start: 200, end: 300, steal: 0, cpu: 3},
		{start: 300, end: 400, steal: 0.02, cpu: 4},
	}
	outs := []outcome{
		{Req: 1, Start: 10, End: 90},   // inside slice 0: clean
		{Req: 2, Start: 50, End: 150},  // ends in the dropped slice
		{Req: 3, Start: 150, End: 250}, // began in the dropped slice
		{Req: 4, Start: 210, End: 390}, // spans two kept slices: clean
		{Req: 5, Start: 390, End: 450}, // ends after the window
	}
	res := keepQuiet(parts, 3, outs)
	reqs := func(os []outcome) []int64 {
		var ids []int64
		for _, o := range os {
			ids = append(ids, o.Req)
		}
		return ids
	}
	if got := reqs(res.kept); !slices.Equal(got, []int64{1, 3, 4}) {
		t.Errorf("kept %v, want [1 3 4]", got)
	}
	if got := reqs(res.clean); !slices.Equal(got, []int64{1, 4}) {
		t.Errorf("clean %v, want [1 4]", got)
	}
	if res.dropped != 1 || res.cpu != 8 || res.keptS != 300e-9 || math.Abs(res.steal-0.02/3) > 1e-12 {
		t.Errorf("dropped %d, cpu %v, kept %v s, steal %v", res.dropped, res.cpu, res.keptS, res.steal)
	}
	if len(res.all) != len(outs) {
		t.Errorf("all has %d outcomes, want %d", len(res.all), len(outs))
	}

	// Fewer quiet slices than wanted: only the quiet ones count, as
	// long as they make up half the window; stolen ones fill up to half.
	for _, c := range []struct {
		steals     []float64
		want, kept int
	}{
		{[]float64{0, 0.4, 0, 0.02}, 4, 3},
		{[]float64{0.3, 0.4, 0.01, 0.2}, 4, 2},
		{[]float64{0.3, 0.4, 0.2, 0.2}, 3, 2},
		{[]float64{0.3}, 4, 1},
		{nil, 4, 0},
	} {
		var sl []windowSlice
		for i, st := range c.steals {
			sl = append(sl, windowSlice{start: int64(100 * i), end: int64(100 * (i + 1)), steal: st})
		}
		if r := keepQuiet(sl, c.want, nil); len(sl)-r.dropped != c.kept {
			t.Errorf("steals %v, want %d: kept %d slices, want %d", c.steals, c.want, len(sl)-r.dropped, c.kept)
		}
	}
}

func TestTimedJobs(t *testing.T) {
	jobs := func(steals ...float64) []*tuneJob {
		var js []*tuneJob
		for _, s := range steals {
			js = append(js, &tuneJob{Steal: s})
		}
		return js
	}
	for _, c := range []struct {
		steals []float64
		want   []bool
	}{
		{[]float64{0.01}, []bool{true}},
		{[]float64{0.3}, []bool{true}},                          // the only job counts
		{[]float64{0.2, 0.01, 0.04}, []bool{false, true, true}}, // the quiet ones
		{[]float64{0.3, 0.1, 0.2}, []bool{false, true, false}},  // none quiet: the least stolen
	} {
		if got := timedJobs(jobs(c.steals...)); !slices.Equal(got, c.want) {
			t.Errorf("timedJobs(%v) = %v, want %v", c.steals, got, c.want)
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	want := []float32{0.5, 2.25, -1, 0.125}

	if err := checkAnswer(predictive, append([]float32(nil), want...), want); err != nil {
		t.Fatalf("identical predictive logits rejected: %v", err)
	}
	ulp := append([]float32(nil), want...)
	ulp[2] = math.Float32frombits(math.Float32bits(ulp[2]) + 1)
	if checkAnswer(predictive, ulp, want) == nil {
		t.Fatal("a one-ulp predictive mismatch passed")
	}

	// Exact mode tolerates summation-order error well inside the stated
	// tolerance, so the same one-ulp change passes.
	if err := checkAnswer(exact, ulp, want); err != nil {
		t.Fatalf("one-ulp exact difference rejected: %v", err)
	}
	near := append([]float32(nil), want...)
	near[1] *= 1 + 3e-6
	if err := checkAnswer(exact, near, want); err != nil {
		t.Fatalf("3e-6 relative exact difference rejected: %v", err)
	}
	wrongClass := append([]float32(nil), want...)
	wrongClass[0] = 3 // class 0 now beats the reference's class 1
	if checkAnswer(exact, wrongClass, want) == nil {
		t.Fatal("a wrong exact-mode class passed")
	}
	zeroed := append([]float32(nil), want...)
	zeroed[3] = 0 // the early-termination defect: a logit zeroed
	if checkAnswer(exact, zeroed, want) == nil {
		t.Fatal("a zeroed exact-mode logit passed")
	}
	if checkAnswer(exact, want[:3], want) == nil {
		t.Fatal("a short logit vector passed")
	}
	if checkAnswer(exact, []float32{float32(math.NaN()), 2.25, -1, 0.125}, want) == nil {
		t.Fatal("a NaN logit passed")
	}
	// All-zero logits (a dead network) match an all-zero reference.
	if err := checkAnswer(exact, make([]float32, 4), make([]float32, 4)); err != nil {
		t.Fatalf("all-zero logits rejected: %v", err)
	}
}

// TestBenchmarkJSONMatchesCatalog holds BENCHMARK.json and the metric
// catalog the benchmark reports from together.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}
