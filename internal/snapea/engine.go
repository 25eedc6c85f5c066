package snapea

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"snapea/internal/faults"
	"snapea/internal/metrics"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// RunOpts selects what the engine records beyond the layer output.
type RunOpts struct {
	// CollectWindows stores the per-window MAC count (Eq. 1's Op value)
	// in the trace, which the cycle-level simulator consumes.
	CollectWindows bool
	// CollectPrediction additionally computes each window's true
	// convolution sign to account true/false negatives (Table V). This
	// costs the full dense MAC count for speculated windows.
	CollectPrediction bool
}

// LayerTrace aggregates what happened while executing one convolution
// layer on one input.
type LayerTrace struct {
	Node       string
	KernelSize int
	Batch      int
	OutC       int
	OutH, OutW int
	// Ops is the per-window MAC count in (n, k, oy, ox) order when
	// RunOpts.CollectWindows is set; nil otherwise.
	Ops []int32
	// TotalOps is the MACs actually executed; DenseOps is what an
	// unaltered convolution would execute (windows × kernel size).
	TotalOps int64
	DenseOps int64
	Windows  int64
	// SpecZero / SignZero count windows terminated early by the
	// predictive threshold check and by the exact sign check.
	SpecZero int64
	SignZero int64
	// Prediction accounting (RunOpts.CollectPrediction): TruthNeg is
	// the number of windows whose true convolution output is negative;
	// SpecTN / SpecFN split the speculated windows by whether the truth
	// was negative.
	TruthNeg int64
	SpecTN   int64
	SpecFN   int64
	// InputElems / WeightElems size the layer's memory traffic for the
	// cycle-level simulator (per whole trace and per layer).
	InputElems  int64
	WeightElems int64
}

// Reduction returns 1 - TotalOps/DenseOps, the fraction of MACs removed.
func (t *LayerTrace) Reduction() float64 {
	if t.DenseOps == 0 {
		return 0
	}
	return 1 - float64(t.TotalOps)/float64(t.DenseOps)
}

// compiledKernel is a ReorderedKernel specialized to a layer geometry:
// each position carries the input-plane offset used on the interior fast
// path and the (ci, ky, kx) coordinates for padded border windows.
type compiledKernel struct {
	w []float32
	// offs holds per-tap input-plane offsets as native ints, precomputed
	// at compile time so the interior hot loops never pay the
	// int32→int conversion per MAC.
	offs       []int
	ci, ky, kx []int32
	numSpec    int
	posEnd     int
	th         float32
	bias       float32
	cBase      int32 // first input channel of this kernel's group
	// stuck marks a kernel whose compute lane is dead (fault injection):
	// every window outputs zero and executes no MACs.
	stuck bool
	// zbias marks the (all but impossible) -0 bias, for which the
	// clipped border strips' zero-add elision is not exact; such a
	// kernel's border windows take the scalar padded path instead.
	zbias bool
	// rowClips[sp.rowOrd(oy)] / colClips[sp.colOrd(ox)] hold the kernel
	// compacted to its in-bounds taps at each border row / column —
	// built after fault injection so flipped weights are reflected.
	rowClips, colClips []clippedTaps
}

// LayerPlan is a convolution layer compiled for SnaPEA execution at a
// fixed input geometry.
type LayerPlan struct {
	Node     string
	Conv     *nn.Conv2D
	Params   LayerParams
	NegOrder NegOrder

	inShape tensor.Shape // single-image input shape (N ignored)
	outC    int
	outH    int
	outW    int
	kernels []compiledKernel
	// strip is the compile-time decomposition of the output geometry
	// into a border ring and an interior core of lane strips
	// (engine_strip.go).
	strip stripPlan
	// scratchPool recycles per-worker strip scratch (accumulator and
	// worklist buffers) across Run calls so the hot path stays
	// allocation-flat.
	scratchPool sync.Pool
	// mode labels this plan's metrics: "predictive" when any kernel
	// speculates, "exact" otherwise. Fixed at compile time.
	mode string

	// faults is the optional injector corrupting this plan's activation
	// outputs at run time; nil (the common case) costs one pointer test
	// per Run. Weight/parameter faults are materialized at compile time.
	faults *faults.Injector
	// runSeq numbers this plan's Run invocations so each execution draws
	// activation faults from its own deterministic site.
	runSeq atomic.Int64
}

// NewLayerPlan reorders and compiles every kernel of conv for inputs of
// the given shape. params may be nil (all kernels exact) or must have
// one entry per output channel.
func NewLayerPlan(node string, conv *nn.Conv2D, inShape tensor.Shape, params LayerParams, negOrder NegOrder) *LayerPlan {
	return NewLayerPlanFaulty(node, conv, inShape, params, negOrder, nil)
}

// NewLayerPlanFaulty compiles a layer plan with fault injection: the
// injector perturbs the speculation parameters (Th, N) before
// reordering — modeling parameter-SRAM corruption — then flips bits in
// the compiled weight buffer (the accelerator's weight SRAM holds the
// *reordered* weights, so flips land after reordering and can break the
// positive/negative monotonicity the early-termination proof relies on,
// which is exactly the failure mode the fault sweep measures) and marks
// stuck-at-zero kernels. A nil injector compiles a clean plan.
func NewLayerPlanFaulty(node string, conv *nn.Conv2D, inShape tensor.Shape, params LayerParams, negOrder NegOrder, inj *faults.Injector) *LayerPlan {
	if params == nil {
		params = AllExact(conv.OutC)
	}
	if len(params) != conv.OutC {
		panic(fmt.Sprintf("snapea: %s: %d params for %d kernels", node, len(params), conv.OutC))
	}
	if inj != nil {
		perturbed := append(LayerParams(nil), params...)
		for k := range perturbed {
			if perturbed[k].IsExact() {
				continue
			}
			perturbed[k].Th = inj.JitterTh(node, k, perturbed[k].Th)
			perturbed[k].N = inj.JitterN(node, k, perturbed[k].N)
		}
		params = perturbed
	}
	os := conv.OutShape([]tensor.Shape{{N: 1, C: inShape.C, H: inShape.H, W: inShape.W}})
	p := &LayerPlan{
		Node: node, Conv: conv, Params: params, NegOrder: negOrder,
		inShape: inShape, outC: conv.OutC, outH: os.H, outW: os.W,
		kernels: make([]compiledKernel, conv.OutC),
		mode:    "exact",
	}
	for _, kp := range params {
		if !kp.IsExact() {
			p.mode = "predictive"
			break
		}
	}
	p.strip = planStrips(conv, inShape, p.outH, p.outW)
	p.scratchPool.New = func() any { return newStripScratch(p.strip.maxLanes) }
	inCg := conv.InC / conv.Groups
	outCg := conv.OutC / conv.Groups
	plane := inShape.H * inShape.W
	for k := 0; k < conv.OutC; k++ {
		rk := Reorder(conv.Kernel(k), params[k], negOrder)
		ck := compiledKernel{
			w:       rk.Weights,
			offs:    make([]int, len(rk.Weights)),
			ci:      make([]int32, len(rk.Weights)),
			ky:      make([]int32, len(rk.Weights)),
			kx:      make([]int32, len(rk.Weights)),
			numSpec: rk.NumSpec,
			posEnd:  rk.PosEnd,
			th:      rk.Th,
			bias:    conv.Bias[k],
			cBase:   int32((k / outCg) * inCg),
		}
		for i, orig := range rk.Index {
			ci := orig / int32(conv.KH*conv.KW)
			rem := orig % int32(conv.KH*conv.KW)
			ky := rem / int32(conv.KW)
			kx := rem % int32(conv.KW)
			ck.ci[i], ck.ky[i], ck.kx[i] = ci, ky, kx
			ck.offs[i] = int(ci)*plane + int(ky)*inShape.W + int(kx)
		}
		if inj != nil {
			inj.FlipWeightBits(fmt.Sprintf("%s/k%d", node, k), ck.w)
		}
		ck.zbias = math.Float32bits(ck.bias) == 1<<31
		if !ck.zbias {
			sp := &p.strip
			ck.rowClips = make([]clippedTaps, 0, len(sp.borderRows))
			for _, oy := range sp.borderRows {
				ck.rowClips = append(ck.rowClips, compactClip(&ck, ck.ky, oy*conv.StrideH-conv.PadH, inShape.H))
			}
			ck.colClips = make([]clippedTaps, 0, len(sp.borderCols))
			for _, ox := range sp.borderCols {
				ck.colClips = append(ck.colClips, compactClip(&ck, ck.kx, ox*conv.StrideW-conv.PadW, inShape.W))
			}
		}
		p.kernels[k] = ck
	}
	if inj != nil {
		for _, k := range inj.StuckKernels(node, conv.OutC) {
			p.kernels[k].stuck = true
		}
		p.faults = inj
	}
	return p
}

// OutShape returns the output shape for a batch of the given size.
func (p *LayerPlan) OutShape(batch int) tensor.Shape {
	return tensor.Shape{N: batch, C: p.outC, H: p.outH, W: p.outW}
}

// Run executes the layer with early activation and returns the output
// (identical to conv+ReLU for exact kernels) and the trace.
func (p *LayerPlan) Run(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace) {
	s := in.Shape()
	if s.C != p.inShape.C || s.H != p.inShape.H || s.W != p.inShape.W {
		panic(fmt.Sprintf("snapea: %s compiled for %v, got %v", p.Node, p.inShape, s))
	}
	out := tensor.New(p.OutShape(s.N))
	tr := p.newTrace(s, opts)

	// (kernel, image) pairs write disjoint output planes (and index-keyed
	// Ops slots), so they fan out across the worker pool as strip-granular
	// work items — finer than whole kernels, which keeps workers busy when
	// early termination makes kernels unevenly priced. Each worker
	// accumulates into a private LayerTrace shard; the shards are merged
	// afterwards in worker order. Every shard field is an integer counter,
	// so the merged totals are identical for any worker count and any
	// dynamic assignment of items to workers.
	workers := parallel.Workers(p.outC * s.N)
	stats := make([]LayerTrace, workers)
	scratch := make([]*stripScratch, workers)
	parallel.For2(p.outC, s.N, func(w, k, n int) {
		sc := scratch[w]
		if sc == nil {
			sc = p.scratchPool.Get().(*stripScratch)
			scratch[w] = sc
		}
		p.runKernel(n, k, in, out, tr, &stats[w], sc, opts)
	})
	for _, sc := range scratch {
		if sc != nil {
			p.scratchPool.Put(sc)
		}
	}
	for i := range stats {
		tr.TotalOps += stats[i].TotalOps
		tr.SpecZero += stats[i].SpecZero
		tr.SignZero += stats[i].SignZero
		tr.TruthNeg += stats[i].TruthNeg
		tr.SpecTN += stats[i].SpecTN
		tr.SpecFN += stats[i].SpecFN
	}
	if p.faults != nil {
		seq := p.runSeq.Add(1) - 1
		p.faults.CorruptActivations(fmt.Sprintf("%s#%d", p.Node, seq), out.Data())
	}
	if metrics.Enabled() {
		p.recordMetrics(tr)
	}
	return out, tr
}

// newTrace returns the trace of one layer run on an input of shape s,
// with the geometry counters filled in.
func (p *LayerPlan) newTrace(s tensor.Shape, opts RunOpts) *LayerTrace {
	tr := &LayerTrace{
		Node:        p.Node,
		KernelSize:  p.Conv.KernelSize(),
		Batch:       s.N,
		OutC:        p.outC,
		OutH:        p.outH,
		OutW:        p.outW,
		Windows:     int64(s.N) * int64(p.outC*p.outH*p.outW),
		InputElems:  int64(s.N) * int64(s.C*s.H*s.W),
		WeightElems: int64(p.outC) * int64(p.Conv.KernelSize()),
	}
	tr.DenseOps = tr.Windows * int64(tr.KernelSize)
	if opts.CollectWindows {
		tr.Ops = make([]int32, tr.Windows)
	}
	return tr
}

// recordMetrics reports one completed layer execution to the metrics
// registry. It runs after the per-worker trace shards were merged, so
// every value it adds is the same integer for any worker count — which
// keeps deterministic metric snapshots byte-identical across -workers
// (see internal/metrics). Granularity is one counter batch per layer
// run, never per window, so the enabled path stays a rounding error
// next to the layer's own MACs; the disabled path costs one atomic
// load in Run.
func (p *LayerPlan) recordMetrics(tr *LayerTrace) {
	lbl := metrics.Labels{"layer": p.Node, "mode": p.mode}
	metrics.C("engine.runs", lbl).Add(1)
	metrics.C("engine.windows", lbl).Add(tr.Windows)
	metrics.C("engine.macs_executed", lbl).Add(tr.TotalOps)
	metrics.C("engine.macs_skipped", lbl).Add(tr.DenseOps - tr.TotalOps)
	metrics.C("engine.exact_early_exits", lbl).Add(tr.SignZero)
	metrics.C("engine.speculative_zeros", lbl).Add(tr.SpecZero)
	metrics.C("engine.mispredictions", lbl).Add(tr.SpecFN)
	if tr.Ops != nil {
		// Bucket-count locally and publish one atomic add per bucket per
		// run instead of one per window: a layer run observes millions of
		// windows, and per-window atomics made metrics-enabled traced runs
		// measurably slower than the engine itself.
		bounds := windowOpsBounds(tr.KernelSize)
		var bc [8]int64 // ≤7 bounds + overflow
		counts := bc[:len(bounds)+1]
		var sum int64
		for _, op := range tr.Ops {
			v := int64(op)
			sum += v
			b := 0
			for b < len(bounds) && v > bounds[b] {
				b++
			}
			counts[b]++
		}
		if err := metrics.H("engine.window_ops", lbl, bounds).ObserveBatch(counts, sum); err != nil {
			// A histogram-shape bug costs this one metric, not the run;
			// the drop is counted so the mismatch stays visible.
			metrics.RC("metrics.observe_batch_drops", nil).Add(1)
		}
	}
}

// opsBoundsCache memoizes windowOpsBounds per kernel size: every Run of
// every plan with the same kernel size shares one immutable bounds
// slice instead of reallocating it per layer execution.
var opsBoundsCache sync.Map // int → []int64

// windowOpsBounds buckets per-window MAC counts into eighths of the
// kernel size (the overflow bucket holds full-length windows). The
// returned slice is shared and must not be modified.
func windowOpsBounds(kernelSize int) []int64 {
	if v, ok := opsBoundsCache.Load(kernelSize); ok {
		return v.([]int64)
	}
	var bounds []int64
	for i := 1; i < 8; i++ {
		b := int64(kernelSize) * int64(i) / 8
		if len(bounds) == 0 || b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	v, _ := opsBoundsCache.LoadOrStore(kernelSize, bounds)
	return v.([]int64)
}

// RunChecked is Run behind the validation the hardened pipeline needs:
// shape mismatches become errors instead of panics, and non-finite
// inputs are rejected. Rejecting (rather than executing) non-finite
// inputs is deliberate: sign-based early termination returns zero the
// moment a partial sum goes negative, so a NaN or ±Inf contribution
// later in the window could have changed the full IEEE sum — the exact
// mode would silently diverge from the dense reference. See the
// engine's NaN-guard tests.
func (p *LayerPlan) RunChecked(in *tensor.Tensor, opts RunOpts) (*tensor.Tensor, *LayerTrace, error) {
	s := in.Shape()
	if s.C != p.inShape.C || s.H != p.inShape.H || s.W != p.inShape.W {
		return nil, nil, fmt.Errorf("snapea: %s compiled for %v, got %v", p.Node, p.inShape, s)
	}
	if i := FirstNonFinite(in.Data()); i >= 0 {
		return nil, nil, fmt.Errorf("snapea: %s: non-finite input at element %d (%v): early termination is undefined on non-finite partial sums; sanitize the input or use the dense nn path", p.Node, i, in.Data()[i])
	}
	out, tr := p.Run(in, opts)
	return out, tr, nil
}

// finiteScans counts FirstNonFinite invocations. It exists so tests and
// benchmarks can prove validation runs once per request at the
// network/serve boundary instead of once per layer (see
// Network.ForwardChecked); the counter is a single atomic add per scan,
// not per element.
var finiteScans atomic.Int64

// FiniteScans returns the process-wide number of non-finite input scans
// performed so far.
func FiniteScans() int64 { return finiteScans.Load() }

// FirstNonFinite returns the index of the first NaN or ±Inf, or -1. It
// is the single shared implementation of the engine's input validation:
// callers validate once at the boundary (the serving layer on decode,
// Network.ForwardChecked on entry) and inner layers then trust
// already-sanitized activations — a finite input through finite weights
// yields finite post-ReLU outputs, so re-scanning per layer only burns
// memory bandwidth.
func FirstNonFinite(d []float32) int {
	finiteScans.Add(1)
	for i, v := range d {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return i
		}
	}
	return -1
}

// runKernel computes all windows of output channel k for batch element
// n as a border ring plus a strip-mined interior core. Border windows
// (any tap out of bounds) keep the per-window scalar path; interior
// rows execute tap-major over strips of consecutive output pixels
// (engine_strip.go). Both paths accumulate each window in the same tap
// order, so outputs and traces are byte-identical to the retained
// scalar reference (runReference) for every geometry.
func (p *LayerPlan) runKernel(n, k int, in, out *tensor.Tensor, tr, st *LayerTrace, sc *stripScratch, opts RunOpts) {
	ck := &p.kernels[k]
	if ck.stuck {
		// Dead lane: outputs stay zero (out is zero-initialized) and no
		// MACs execute.
		return
	}
	conv := p.Conv
	s := in.Shape()
	ind := in.Data()
	outd := out.Data()
	inBase := (n*s.C + int(ck.cBase)) * s.H * s.W
	outRow := (n*p.outC + k) * p.outH * p.outW
	sp := &p.strip
	for oy := 0; oy < p.outH; oy++ {
		iy0 := oy*conv.StrideH - conv.PadH
		rowIdx := outRow + oy*p.outW
		rowBase := inBase + iy0*s.W
		if oy >= sp.oyLo && oy < sp.oyHi {
			// Interior row: strip-mined core. The kx-clipped border
			// columns of this row run in the vertical strips below.
			for _, span := range sp.spans {
				base := rowBase + span.ox*conv.StrideW - conv.PadW
				p.runStrip(ck, ind, outd, base, span.n, conv.StrideW, rowIdx+span.ox, tr, st, sc, opts)
			}
			continue
		}
		// Border row: iy-clipped strips over the kx-valid columns; only
		// the corner windows — clipped on both axes — go scalar. A -0
		// bias (where the zero-add elision is not exact) keeps the whole
		// row scalar.
		if ck.zbias {
			p.borderCols(ck, ind, outd, inBase, iy0, 0, p.outW, s.H, s.W, rowIdx, tr, st, opts)
			continue
		}
		p.borderCols(ck, ind, outd, inBase, iy0, 0, sp.oxLo, s.H, s.W, rowIdx, tr, st, opts)
		ct := &ck.rowClips[sp.rowOrd(oy)]
		for _, span := range sp.spans {
			base := rowBase + span.ox*conv.StrideW - conv.PadW
			p.runStripClipped(ck, ct, ind, outd, base, span.n, conv.StrideW, rowIdx+span.ox, 1, tr, st, sc, opts)
		}
		p.borderCols(ck, ind, outd, inBase, iy0, sp.oxHi, p.outW, s.H, s.W, rowIdx, tr, st, opts)
	}
	// Border columns × iy-valid rows: kx-clipped vertical strips, one
	// lane per output row, striding a whole input row per lane.
	for _, cr := range [2][2]int{{0, sp.oxLo}, {sp.oxHi, p.outW}} {
		for ox := cr[0]; ox < cr[1]; ox++ {
			ix0 := ox*conv.StrideW - conv.PadW
			if ck.zbias {
				for oy := sp.oyLo; oy < sp.oyHi; oy++ {
					iy0 := oy*conv.StrideH - conv.PadH
					val, ops := p.windowBorder(ck, ind, inBase, iy0, ix0, s.H, s.W, st, opts)
					idx := outRow + oy*p.outW + ox
					outd[idx] = val
					st.TotalOps += int64(ops)
					if tr.Ops != nil {
						tr.Ops[idx] = ops
					}
				}
				continue
			}
			ct := &ck.colClips[sp.colOrd(ox)]
			for _, vs := range sp.vspans {
				iy0 := vs.ox*conv.StrideH - conv.PadH
				base := inBase + iy0*s.W + ix0
				outIdx := outRow + vs.ox*p.outW + ox
				p.runStripClipped(ck, ct, ind, outd, base, vs.n, conv.StrideH*s.W, outIdx, p.outW, tr, st, sc, opts)
			}
		}
	}
}

// borderCols runs the scalar padded-window path for output columns
// [oxLo, oxHi) of one output row.
func (p *LayerPlan) borderCols(ck *compiledKernel, ind, outd []float32, inBase, iy0, oxLo, oxHi, inH, inW, rowIdx int, tr, st *LayerTrace, opts RunOpts) {
	conv := p.Conv
	for ox := oxLo; ox < oxHi; ox++ {
		ix0 := ox*conv.StrideW - conv.PadW
		val, ops := p.windowBorder(ck, ind, inBase, iy0, ix0, inH, inW, st, opts)
		idx := rowIdx + ox
		outd[idx] = val
		st.TotalOps += int64(ops)
		if tr.Ops != nil {
			tr.Ops[idx] = ops
		}
	}
}

// windowBorder is the padded-window path: out-of-bounds taps read zero
// (the hardware streams explicit zero padding through the MACs, so they
// still count as operations). The fetch reuses the precomputed interior
// offsets — for an in-bounds tap the address is base0+offs[i], exactly
// like the interior path — so only the two unsigned range tests remain
// per tap.
func (p *LayerPlan) windowBorder(ck *compiledKernel, ind []float32, inBase, iy0, ix0, inH, inW int, st *LayerTrace, opts RunOpts) (float32, int32) {
	base0 := inBase + iy0*inW + ix0
	ky, kx, offs := ck.ky, ck.kx, ck.offs
	fetch := func(i int) float32 {
		iy := iy0 + int(ky[i])
		ix := ix0 + int(kx[i])
		if uint(iy) < uint(inH) && uint(ix) < uint(inW) {
			return ind[base0+offs[i]]
		}
		return 0
	}
	acc := ck.bias
	w := ck.w
	i := 0
	for ; i < ck.numSpec; i++ {
		acc += w[i] * fetch(i)
	}
	if ck.numSpec > 0 && acc <= ck.th {
		st.SpecZero++
		if opts.CollectPrediction {
			full := acc
			for j := i; j < len(w); j++ {
				full += w[j] * fetch(j)
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
	for ; i < ck.posEnd; i++ {
		acc += w[i] * fetch(i)
	}
	for ; i < len(w); i++ {
		acc += w[i] * fetch(i)
		if acc < 0 {
			i++
			st.SignZero++
			if opts.CollectPrediction {
				st.TruthNeg++
			}
			return 0, int32(i)
		}
	}
	if acc < 0 {
		if opts.CollectPrediction {
			st.TruthNeg++
		}
		return 0, int32(i)
	}
	return acc, int32(i)
}
