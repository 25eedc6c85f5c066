package snapea

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"snapea/internal/faults"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// The strip-mined execution kernel (engine_strip.go) is a pure
// performance restructuring: outputs, per-window op counts, and every
// trace counter must be byte-identical to the retained scalar reference
// (runReference) for any geometry, parameter mix, option set, fault
// injection, and worker count. This suite is that contract, enforced
// over a hand-picked geometry sweep, a randomized property sweep, and
// fault-injected plans; TestLayerPlanRunWorkerInvariance (invariance
//_test.go) covers the worker-count half and runs under -race in CI.

// equivOpts are the option sets every equivalence case is checked
// under: the bare hot path, traced windows, and full prediction
// accounting (which exercises the spec-retire true-sign walks).
var equivOpts = []RunOpts{
	{},
	{CollectWindows: true},
	{CollectWindows: true, CollectPrediction: true},
}

// assertStripEquiv runs the production path and the scalar reference on
// the same plan and requires bit-identical outputs and traces.
func assertStripEquiv(t *testing.T, label string, plan *LayerPlan, in *tensor.Tensor) {
	t.Helper()
	for _, opts := range equivOpts {
		got, gtr := plan.Run(in, opts)
		want, wtr := plan.runReference(in, opts)
		if !reflect.DeepEqual(got.Data(), want.Data()) {
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("%s opts=%+v: output[%d] = %v, reference %v",
						label, opts, i, got.Data()[i], want.Data()[i])
				}
			}
			t.Fatalf("%s opts=%+v: outputs differ", label, opts)
		}
		if !reflect.DeepEqual(gtr, wtr) {
			t.Fatalf("%s opts=%+v: traces differ\n got %+v\nwant %+v", label, opts, gtr, wtr)
		}
	}
}

// mixedParams gives every other kernel a speculative prefix so both the
// predictive and exact paths execute in one run.
func mixedParams(outC int, rng *tensor.RNG) LayerParams {
	params := AllExact(outC)
	for k := 0; k < outC; k += 2 {
		params[k] = KernelParam{Th: float32(rng.Float64() * 0.1), N: 2 + k%5}
	}
	return params
}

func equivConvPlan(t *testing.T, name string, conv *nn.Conv2D, inShape tensor.Shape, seed uint64, exact bool) (*LayerPlan, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	for i := range conv.Bias {
		conv.Bias[i] = float32(rng.Norm() * 0.1)
	}
	params := AllExact(conv.OutC)
	if !exact {
		params = mixedParams(conv.OutC, rng)
	}
	plan := NewLayerPlan(name, conv, inShape, params, NegByMagnitude)
	in := tensor.New(tensor.Shape{N: 2, C: inShape.C, H: inShape.H, W: inShape.W})
	tensor.FillUniform(in, tensor.NewRNG(seed+1), -1, 1)
	return plan, in
}

// TestStripEquivalenceGeometries sweeps the geometry corners the strip
// decomposition has to get right: strides 1–3 (symmetric and not),
// pads 0–2, grouped channels, kH≠kW, kernels larger than the input
// overhang (empty interior), and rows/columns wider than one span
// (> maxStripLanes lanes).
func TestStripEquivalenceGeometries(t *testing.T) {
	type geom struct {
		name          string
		conv          *nn.Conv2D
		h, w          int
		strideW, padW int // 0 = keep symmetric
	}
	asym := func(c *nn.Conv2D, sw, pw int) *nn.Conv2D {
		c.StrideW, c.PadW = sw, pw
		return c
	}
	cases := []geom{
		{name: "3x3_s1_p1", conv: nn.NewConv2D(4, 6, 3, 3, 1, 1, 1, true), h: 12, w: 12},
		{name: "3x3_s1_p0_no_border", conv: nn.NewConv2D(4, 6, 3, 3, 1, 0, 1, true), h: 12, w: 12},
		{name: "3x3_s2_p1", conv: nn.NewConv2D(4, 6, 3, 3, 2, 1, 1, true), h: 13, w: 13},
		{name: "3x3_s3_p2", conv: nn.NewConv2D(4, 6, 3, 3, 3, 2, 1, true), h: 14, w: 14},
		{name: "5x3_rect_kernel", conv: nn.NewConv2D(4, 6, 5, 3, 1, 2, 1, true), h: 12, w: 12},
		{name: "1x1_s1_p0", conv: nn.NewConv2D(6, 8, 1, 1, 1, 0, 1, true), h: 9, w: 9},
		{name: "grouped_g2", conv: nn.NewConv2D(8, 6, 3, 3, 1, 1, 2, true), h: 10, w: 10},
		{name: "asym_stride_pad", conv: asym(nn.NewConv2D(4, 6, 3, 3, 2, 0, 1, true), 1, 2), h: 13, w: 11},
		{name: "empty_interior", conv: nn.NewConv2D(3, 4, 3, 3, 1, 2, 1, true), h: 2, w: 2},
		{name: "wide_row_multi_span", conv: nn.NewConv2D(2, 3, 3, 3, 1, 1, 1, true), h: 4, w: maxStripLanes + 44},
		{name: "tall_col_multi_span", conv: nn.NewConv2D(2, 3, 3, 3, 1, 1, 1, true), h: maxStripLanes + 44, w: 4},
	}
	for i, g := range cases {
		for _, exact := range []bool{true, false} {
			label := g.name
			if exact {
				label += "/exact"
			} else {
				label += "/predictive"
			}
			t.Run(label, func(t *testing.T) {
				inShape := tensor.Shape{N: 1, C: g.conv.InC, H: g.h, W: g.w}
				plan, in := equivConvPlan(t, g.name, g.conv, inShape, uint64(100+i), exact)
				if g.name == "wide_row_multi_span" && len(plan.strip.spans) < 2 {
					t.Fatalf("expected multiple horizontal spans, got %d", len(plan.strip.spans))
				}
				if g.name == "tall_col_multi_span" && len(plan.strip.vspans) < 2 {
					t.Fatalf("expected multiple vertical spans, got %d", len(plan.strip.vspans))
				}
				assertStripEquiv(t, label, plan, in)
			})
		}
	}
}

// TestStripEquivalenceNegZeroBias pins the -0-bias escape hatch: the
// clipped border strips elide w*0 adds on the argument that a non-(-0)
// accumulator cannot be changed by them, so a kernel compiled with a
// literal -0 bias must take the scalar border path and still match the
// reference bit for bit.
func TestStripEquivalenceNegZeroBias(t *testing.T) {
	conv := nn.NewConv2D(3, 4, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(31)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	negZero := math.Float32frombits(1 << 31)
	for i := range conv.Bias {
		conv.Bias[i] = negZero
	}
	inShape := tensor.Shape{N: 1, C: 3, H: 9, W: 9}
	plan := NewLayerPlan("negzero", conv, inShape, mixedParams(conv.OutC, rng), NegByMagnitude)
	for k := range plan.kernels {
		if !plan.kernels[k].zbias {
			t.Fatalf("kernel %d: -0 bias not detected at compile time", k)
		}
	}
	in := tensor.New(tensor.Shape{N: 2, C: 3, H: 9, W: 9})
	tensor.FillUniform(in, tensor.NewRNG(32), -1, 1)
	assertStripEquiv(t, "negzero", plan, in)
}

// TestStripEquivalenceFuzz is the property form of the sweep: random
// geometries, parameters, and inputs, with the scalar reference as the
// oracle. Every case that fails prints enough to be replayed as a
// fixed-seed regression.
func TestStripEquivalenceFuzz(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	rng := tensor.NewRNG(777)
	geo := func(lo, hi int) int { return lo + int(rng.Uint64()%uint64(hi-lo+1)) }
	for it := 0; it < iters; it++ {
		groups := 1
		if rng.Uint64()%3 == 0 {
			groups = 2
		}
		inC := groups * geo(1, 3)
		outC := groups * geo(1, 3)
		kh, kw := geo(1, 4), geo(1, 4)
		conv := nn.NewConv2D(inC, outC, kh, kw, 1, 0, groups, true)
		conv.StrideH, conv.StrideW = geo(1, 3), geo(1, 3)
		conv.PadH, conv.PadW = geo(0, 2), geo(0, 2)
		h := geo(kh, kh+14)
		w := geo(kw, kw+14)
		label := fmt.Sprintf("it%d_c%d-%d_k%dx%d_s%dx%d_p%dx%d_g%d_%dx%d",
			it, inC, outC, kh, kw, conv.StrideH, conv.StrideW, conv.PadH, conv.PadW, groups, h, w)

		seed := rng.Uint64()
		wrng := tensor.NewRNG(seed)
		tensor.FillNorm(conv.Weights, wrng, 0, 0.6)
		for i := range conv.Bias {
			conv.Bias[i] = float32(wrng.Norm() * 0.2)
		}
		params := AllExact(outC)
		for k := range params {
			switch rng.Uint64() % 3 {
			case 0: // exact
			case 1:
				params[k] = KernelParam{Th: float32(rng.Float64() * 0.2), N: geo(1, kh*kw*inC/groups)}
			case 2:
				params[k] = KernelParam{Th: 0, N: geo(1, 4)}
			}
		}
		plan := NewLayerPlan("fuzz", conv, tensor.Shape{N: 1, C: inC, H: h, W: w}, params, NegByMagnitude)
		in := tensor.New(tensor.Shape{N: geo(1, 2), C: inC, H: h, W: w})
		tensor.FillUniform(in, tensor.NewRNG(seed+1), -1, 1)
		assertStripEquiv(t, label, plan, in)
	}
}

// TestStripEquivalenceFaults drives fault-injected plans through the
// strip path: stuck kernels (whole output channels dead), flipped
// weight bits (which must be reflected in the precompiled border
// clips — they are built after injection), and activation corruption.
// Two plans are compiled from identical injector configs so the
// production path and the reference see the same faults at the same
// run sequence.
func TestStripEquivalenceFaults(t *testing.T) {
	conv := nn.NewConv2D(4, 8, 3, 3, 1, 1, 1, true)
	rng := tensor.NewRNG(41)
	tensor.FillNorm(conv.Weights, rng, 0, 0.5)
	for i := range conv.Bias {
		conv.Bias[i] = float32(rng.Norm() * 0.1)
	}
	inShape := tensor.Shape{N: 1, C: 4, H: 10, W: 10}
	params := mixedParams(conv.OutC, rng)
	in := tensor.New(tensor.Shape{N: 2, C: 4, H: 10, W: 10})
	tensor.FillUniform(in, tensor.NewRNG(42), -1, 1)

	cfgs := []faults.Config{
		{Seed: 7, StuckZero: 0.4},
		{Seed: 8, WeightBitFlip: 0.05},
		{Seed: 9, ActBitFlip: 0.01},
		{Seed: 10, StuckZero: 0.25, WeightBitFlip: 0.02, ActBitFlip: 0.005},
	}
	for i, cfg := range cfgs {
		label := fmt.Sprintf("cfg%d", i)
		t.Run(label, func(t *testing.T) {
			for _, opts := range equivOpts {
				prod := NewLayerPlanFaulty("flt", conv, inShape, params, NegByMagnitude, faults.New(cfg))
				ref := NewLayerPlanFaulty("flt", conv, inShape, params, NegByMagnitude, faults.New(cfg))
				got, gtr := prod.Run(in, opts)
				want, wtr := ref.runReference(in, opts)
				if !reflect.DeepEqual(got.Data(), want.Data()) {
					t.Fatalf("%s opts=%+v: outputs differ", label, opts)
				}
				if !reflect.DeepEqual(gtr, wtr) {
					t.Fatalf("%s opts=%+v: traces differ\n got %+v\nwant %+v", label, opts, gtr, wtr)
				}
			}
		})
	}
}

// TestRunFixedStripEquivalence cross-checks the Q7.8 engine against the
// float strip-mined engine over the same geometry corners as the float
// suite. Weights, biases and thresholds are multiples of 1/256 and the
// inputs are small integers, so every product and partial sum is exact
// both in float32 and in the fixed-point accumulator: neither datapath
// rounds, and RunFixed must reproduce Run's outputs, per-window op
// counts and traces bit for bit.
func TestRunFixedStripEquivalence(t *testing.T) {
	asym := func(c *nn.Conv2D, sw, pw int) *nn.Conv2D {
		c.StrideW, c.PadW = sw, pw
		return c
	}
	cases := []struct {
		name string
		conv *nn.Conv2D
		h, w int
	}{
		{name: "3x3_s1_p1", conv: nn.NewConv2D(4, 6, 3, 3, 1, 1, 1, true), h: 12, w: 12},
		{name: "3x3_s2_p1", conv: nn.NewConv2D(4, 6, 3, 3, 2, 1, 1, true), h: 13, w: 13},
		{name: "5x3_rect_kernel", conv: nn.NewConv2D(4, 6, 5, 3, 1, 2, 1, true), h: 12, w: 12},
		{name: "asym_stride_pad", conv: asym(nn.NewConv2D(4, 6, 3, 3, 2, 0, 1, true), 1, 2), h: 13, w: 11},
		{name: "empty_interior", conv: nn.NewConv2D(3, 4, 3, 3, 1, 2, 1, true), h: 2, w: 2},
		{name: "wide_row_multi_span", conv: nn.NewConv2D(2, 3, 3, 3, 1, 1, 1, true), h: 4, w: maxStripLanes + 44},
	}
	// q78 draws a multiple of 1/256 in [-lim, lim]/256.
	q78 := func(rng *tensor.RNG, std float64, lim int) float32 {
		m := int(math.Round(rng.Norm() * std))
		m = max(-lim, min(lim, m))
		return float32(m) / 256
	}
	for i, g := range cases {
		for _, exact := range []bool{true, false} {
			label := g.name
			if exact {
				label += "/exact"
			} else {
				label += "/predictive"
			}
			t.Run(label, func(t *testing.T) {
				rng := tensor.NewRNG(uint64(300 + i))
				conv := g.conv
				w := conv.Weights.Data()
				for j := range w {
					w[j] = q78(rng, 48, 96)
				}
				for k := range conv.Bias {
					conv.Bias[k] = q78(rng, 24, 64)
				}
				params := AllExact(conv.OutC)
				if !exact {
					for k := 0; k < conv.OutC; k += 2 {
						params[k] = KernelParam{Th: float32(rng.Uint64()%26) / 256, N: 2 + k%5}
					}
				}
				inShape := tensor.Shape{N: 1, C: conv.InC, H: g.h, W: g.w}
				plan := NewLayerPlan(g.name, conv, inShape, params, NegByMagnitude)
				in := tensor.New(tensor.Shape{N: 2, C: conv.InC, H: g.h, W: g.w})
				for j, d := 0, in.Data(); j < len(d); j++ {
					d[j] = float32(int(rng.Uint64()%4) - 1)
				}
				for _, opts := range []RunOpts{{}, {CollectWindows: true}} {
					got, gtr := plan.RunFixed(in, opts)
					want, wtr := plan.Run(in, opts)
					for j, v := range want.Data() {
						if math.Float32bits(got.Data()[j]) != math.Float32bits(v) {
							t.Fatalf("%s opts=%+v: fixed output[%d] = %v, float %v", label, opts, j, got.Data()[j], v)
						}
					}
					if !reflect.DeepEqual(gtr, wtr) {
						t.Fatalf("%s opts=%+v: fixed trace differs from float\n got %+v\nwant %+v", label, opts, gtr, wtr)
					}
					if wtr.SignZero == 0 || (!exact && wtr.SpecZero == 0) {
						t.Fatalf("%s: degenerate case, sign %d spec %d terminations", label, wtr.SignZero, wtr.SpecZero)
					}
				}
			})
		}
	}
}

// TestFCStripEquivalence validates the lane-batched FC path against the
// retained per-neuron reference: random layers, batch sizes 1–5, inputs
// that include negatives (so the positive region can end below zero and
// the suffix retires lanes at different taps per batch row).
func TestFCStripEquivalence(t *testing.T) {
	rng := tensor.NewRNG(999)
	for it := 0; it < 12; it++ {
		in := 8 + int(rng.Uint64()%48)
		outN := 3 + int(rng.Uint64()%12)
		batch := 1 + int(rng.Uint64()%5)
		fc := nn.NewFC(in, outN, true)
		tensor.FillNorm(fc.Weights, rng, 0, 0.5)
		for i := range fc.Bias {
			fc.Bias[i] = float32(rng.Norm() * 0.2)
		}
		plan := NewFCPlan("fc", fc, NegByMagnitude)
		x := tensor.New(tensor.Shape{N: batch, C: in, H: 1, W: 1})
		tensor.FillUniform(x, tensor.NewRNG(rng.Uint64()), -1, 1)
		label := fmt.Sprintf("it%d_in%d_out%d_b%d", it, in, outN, batch)
		for _, opts := range equivOpts {
			got, gtr := plan.Run(x, opts)
			want, wtr := plan.runFCReference(x, opts)
			if !reflect.DeepEqual(got.Data(), want.Data()) {
				t.Fatalf("%s opts=%+v: FC outputs differ", label, opts)
			}
			if !reflect.DeepEqual(gtr, wtr) {
				t.Fatalf("%s opts=%+v: FC traces differ\n got %+v\nwant %+v", label, opts, gtr, wtr)
			}
		}
	}
}

// TestStripEquivalenceAcrossWorkers recrosses the two invariants: the
// strip path must match the scalar reference at every worker count, on
// a geometry with border rows, border columns, and multiple spans, so
// strip-granular work distribution is actually exercised.
func TestStripEquivalenceAcrossWorkers(t *testing.T) {
	conv := nn.NewConv2D(3, 5, 3, 3, 1, 1, 1, true)
	inShape := tensor.Shape{N: 1, C: 3, H: 8, W: maxStripLanes + 20}
	plan, in := equivConvPlan(t, "wk", conv, inShape, 55, false)
	opts := RunOpts{CollectWindows: true, CollectPrediction: true}
	want, wtr := plan.runReference(in, opts)
	defer parallel.SetLimit(0)
	for _, workers := range []int{1, 2, 3, 8} {
		parallel.SetLimit(workers)
		got, gtr := plan.Run(in, opts)
		if !reflect.DeepEqual(got.Data(), want.Data()) {
			t.Fatalf("workers=%d: outputs differ from scalar reference", workers)
		}
		if !reflect.DeepEqual(gtr, wtr) {
			t.Fatalf("workers=%d: traces differ\n got %+v\nwant %+v", workers, gtr, wtr)
		}
	}
}
