package main

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the benchmark's own arithmetic: the percentile rule,
// span self time, the measured window's slice filter, and the answer
// comparator. It has no I/O so the unit tests can pin each rule down.

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// medianIndex is the index of the (lower) median of n sorted samples.
func medianIndex(n int) int { return (n - 1) / 2 }

// tailIndex is the index of the reported tail percentile in n sorted
// samples: p99 when at least minBeyond samples lie beyond it, otherwise
// the highest percentile that has minBeyond beyond it. It never drops
// below the median, which is what a sample too small for any tail
// reports.
func tailIndex(n int) int {
	if n <= 0 {
		return -1
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	if j := n - 1 - minBeyond; j < i {
		i = j
	}
	if m := medianIndex(n); i < m {
		i = m
	}
	return i
}

// summary is the median and the tail percentile of a sample, with the
// percentile the tail actually is and the sample count.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailPc float64 // percentile of Tail, e.g. 99 or 98.6
}

// summarize sorts a copy of xs and applies the percentile rule. An
// empty sample summarizes to zeros.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := tailIndex(len(s))
	return summary{
		N:      len(s),
		P50:    s[medianIndex(len(s))],
		Tail:   s[i],
		TailPc: 100 * float64(i+1) / float64(len(s)),
	}
}

// median is the (lower) median of xs, 0 for an empty sample.
func median(xs []float64) float64 { return summarize(xs).P50 }

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// span is one timed interval of a request (or of a tune stage) at one
// layer boundary. Times are Unix nanoseconds so spans recorded in the
// load process and in the program process share one clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Where names the replica (its base URL) for serve spans.
	Where string `json:"where,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the part of the parent's interval not covered by any of
// its children. Children are clipped to the parent, and overlapping
// children (a hedge racing the first attempt) are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// windowSlice is one slice of a measured window: its Unix-ns bounds, the
// machine's stolen share of CPU in it and the program's CPU seconds.
type windowSlice struct {
	start, end int64
	steal, cpu float64
}

// keepQuiet keeps the least-stolen slices of a window — every quiet one
// up to want, and stolen ones only to make up half of want — and sorts
// the window's outcomes by them.
func keepQuiet(slices []windowSlice, want int, all []outcome) windowResult {
	order := make([]int, len(slices))
	quiet := 0
	for i, sl := range slices {
		order[i] = i
		if sl.steal <= quietSteal {
			quiet++
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return slices[order[a]].steal < slices[order[b]].steal })
	n := min(want, max(quiet, (want+1)/2), len(slices))
	keep := make([]bool, len(slices))
	res := windowResult{all: all, dropped: len(slices) - n}
	for _, i := range order[:n] {
		keep[i] = true
		res.keptS += float64(slices[i].end-slices[i].start) / 1e9
		res.steal += slices[i].steal
		res.cpu += slices[i].cpu
	}
	if n > 0 {
		res.steal /= float64(n)
	}
	at := func(t int64) int { return sort.Search(len(slices), func(i int) bool { return slices[i].end > t }) }
	for _, o := range all {
		i := at(o.End)
		if i == len(slices) || o.End < slices[i].start || !keep[i] {
			continue
		}
		res.kept = append(res.kept, o)
		// A request that overlapped a dropped slice was slowed by the
		// theft, so latency counts only the clean ones.
		j := at(o.Start)
		for j < i && keep[j] {
			j++
		}
		if j == i {
			res.clean = append(res.clean, o)
		}
	}
	return res
}

// Exact mode reorders each window's MACs (positive weights first), so
// its float sums differ from the dense reference in the last bits. A
// logit is correct when it lies within exactRelTol of the reference's
// largest magnitude plus exactAbsTol; on non-negative inputs the
// observed error is below 3e-6 relative.
const (
	exactRelTol = 1e-4
	exactAbsTol = 1e-6
)

// checkAnswer compares served logits with the reference computed in
// set-up. Predictive mode must match a batch-1 Network.Forward with the
// same params bit for bit; exact mode must match the dense Graph.Forward
// within the stated tolerance and pick the same class whenever the
// reference's top two logits are further apart than that tolerance.
func checkAnswer(mode string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d logits, want %d", len(got), len(want))
	}
	if mode != exact {
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return fmt.Errorf("logit %d = %v, want %v bit for bit", i, got[i], want[i])
			}
		}
		return nil
	}
	var scale float64
	for _, w := range want {
		scale = max(scale, math.Abs(float64(w)))
	}
	tol := exactRelTol*scale + exactAbsTol
	for i := range want {
		if d := math.Abs(float64(got[i]) - float64(want[i])); !(d <= tol) {
			return fmt.Errorf("logit %d = %v, want %v within %.3g", i, got[i], want[i], tol)
		}
	}
	if g, w := argmax(got), argmax(want); g != w && topGap(want) > tol {
		return fmt.Errorf("class %d, want %d", g, w)
	}
	return nil
}

// argmax returns the index of the first largest value.
func argmax(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// topGap is the distance between the largest and second-largest value.
func topGap(xs []float32) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	a, b := math.Inf(-1), math.Inf(-1)
	for _, x := range xs {
		switch v := float64(x); {
		case v > a:
			a, b = v, a
		case v > b:
			b = v
		}
	}
	return a - b
}
