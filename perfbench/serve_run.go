package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// prepare builds every served model as serve does and computes the
// reference logits for its timed and probe inputs: dense Graph.Forward
// for exact mode, batch-1 Network.Forward with the fixture params for
// predictive mode. It returns the models and the seconds spent in
// models.Build and dataset.Generate.
func (b *bench) prepare() (map[string]*model, float64, float64, error) {
	out := map[string]*model{}
	var buildS, genS float64
	for _, name := range b.w.Models {
		t0 := time.Now()
		m, err := buildServed(name)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		md := &model{timed: timedInputs(m, b.seed)}
		buildS += t1.Sub(t0).Seconds()
		genS += time.Since(t1).Seconds()
		md.probe = probeInputs(m)
		md.ref, md.probeRef = map[string][][]float32{}, map[string][][]float32{}
		exactRef := func(in []*tensor.Tensor) [][]float32 {
			refs := make([][]float32, len(in))
			for i, x := range in {
				refs[i] = append([]float32(nil), m.Graph.Forward(x).Data()...)
			}
			return refs
		}
		md.ref[exact], md.probeRef[exact] = exactRef(md.timed), exactRef(md.probe)
		if contains(b.w.Params, name) {
			f, err := loadFixture(b.root, m)
			if err != nil {
				return nil, 0, 0, err
			}
			net := compileFixture(m, f)
			predRef := func(in []*tensor.Tensor) [][]float32 {
				refs := make([][]float32, len(in))
				for i, x := range in {
					refs[i] = append([]float32(nil), net.Forward(x, snapea.RunOpts{}, nil).Data()...)
				}
				return refs
			}
			md.ref[predictive], md.probeRef[predictive] = predRef(md.timed), predRef(md.probe)
		}
		for _, x := range md.timed {
			md.rawTimed, md.jsonTimed = append(md.rawTimed, rawBody(x)), append(md.jsonTimed, jsonBody(x))
		}
		for _, x := range md.probe {
			md.rawProbe, md.jsonProbe = append(md.rawProbe, rawBody(x)), append(md.jsonProbe, jsonBody(x))
		}
		out[name] = md
	}
	return out, buildS, genS, nil
}

func (b *bench) runServe(ctx context.Context) (*result, error) {
	ms, buildS, genS, err := b.prepare()
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(loadProcs)
	client := newClient()

	var p *proc
	for i := 0; i < setups; i++ {
		var s float64
		if p, s, err = b.launch(ctx, client); err != nil {
			return nil, err
		}
		b.rec.SetupS = append(b.rec.SetupS, s)
		if i < setups-1 {
			// An idle client connection would keep the program's graceful
			// shutdown waiting for its idle poll, up to half a second.
			client.CloseIdleConnections()
			if _, err := p.stop(ctx); err != nil {
				return nil, err
			}
		}
	}
	snd := &sender{client: client, base: p.base, json: b.w.JSON, models: ms}
	snd.warm(ctx, b.w, b.seed+1<<32, warmup)

	before, err := integrityCounts(ctx, client, p.base)
	if err != nil {
		return nil, err
	}
	window := time.Duration(b.seconds) * time.Second
	cpu := func() (float64, error) { return p.cpu(ctx) }
	win, err := snd.window(ctx, b.w, b.seed, window, cpu)
	if err != nil {
		return nil, err
	}
	b.rec.StealFrac, b.rec.SlicesDropped = win.steal, win.dropped
	var traced windowResult
	if b.traced {
		if err := p.command("trace on"); err != nil {
			return nil, err
		}
		if traced, err = snd.window(ctx, b.w, b.seed, window, cpu); err != nil {
			return nil, err
		}
		if err := p.command("trace off"); err != nil {
			return nil, err
		}
	}
	after, err := integrityCounts(ctx, client, p.base)
	if err != nil {
		return nil, err
	}
	b.rec.Integrity = map[string]int64{}
	for k, v := range after {
		b.rec.Integrity[k] = v - before[k]
	}
	probes, wrong, classes := snd.sweep(ctx, b.w)
	b.rec.SweepWrong, b.rec.Classes = wrong, classes
	client.CloseIdleConnections()
	rss, err := p.stop(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, o := range append(win.all, traced.all...) {
		if o.Status == http.StatusOK && o.Wrong {
			b.rec.TimedWrong = append(b.rec.TimedWrong, fmt.Sprintf("%s input %d: %s", o.T, o.Input, o.Why))
		}
	}
	e2e := serveEndToEnd(win, b.w)
	b.rec.Samples, b.rec.TailPct = e2e.lat.N, e2e.lat.TailPc
	res := &result{Correct: len(b.rec.TimedWrong) == 0}
	if !b.traced {
		okAll := countOK(win.all)
		var sweepWrong int
		for _, n := range wrong {
			sweepWrong += n
		}
		res.Attempted, res.Failed = int64(len(win.all)), int64(len(win.all)-okAll)
		res.Metrics = complete(endToEnd, map[string]float64{
			"setup_s":        median(b.rec.SetupS),
			"latency_p50_ms": e2e.lat.P50,
			"latency_p99_ms": e2e.lat.Tail,
			"throughput_rps": e2e.throughput,
			"cpu_ms_per_req": 1e3 * win.cpu / float64(max(countOK(win.kept), 1)),
			"ok_frac":        float64(okAll) / float64(max(len(win.all), 1)),
			"sweep_ok_frac":  1 - float64(sweepWrong)/float64(probes),
			"rss_peak_mb":    rss,
			"mac_reduction":  e2e.reduction,
		})
		return res, nil
	}

	spans, err := b.readProgramSpans()
	if err != nil {
		return nil, err
	}
	te2e := serveEndToEnd(traced, b.w)
	res.Attempted, res.Failed = int64(len(traced.all)), int64(len(traced.all)-countOK(traced.all))
	layers, all := serveLayers(traced.all, spans, b.w.Gateway)
	layers["trace.overhead_latency_p50_ms"] = te2e.lat.P50 - e2e.lat.P50
	layers["trace.overhead_throughput_rps"] = te2e.throughput - e2e.throughput
	layers["models.build_s"] = buildS
	layers["dataset.generate_s"] = genS
	if err := writeJSON(filepath.Join(b.out, fmt.Sprintf("spans-%s-%d.json", b.w.Name, b.seed)), all); err != nil {
		return nil, err
	}
	if err := b.addLedger(layers, traced.all); err != nil {
		return nil, err
	}
	res.Metrics = complete(perLayer(), layers)
	return res, nil
}

func countOK(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.ok() {
			n++
		}
	}
	return n
}

func (b *bench) readProgramSpans() ([]span, error) {
	data, err := os.ReadFile(b.spansPath())
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", b.spansPath(), err)
	}
	return spans, nil
}

// e2eStats is what a window's kept requests add up to.
type e2eStats struct {
	lat        summary // over clean correct 200s, in ms
	throughput float64 // correct 200s per kept second
	reduction  float64 // mean over targets of the mean served MAC reduction
}

func serveEndToEnd(win windowResult, w *workload) e2eStats {
	var st e2eStats
	var lat []float64
	for _, o := range win.clean {
		if o.ok() {
			lat = append(lat, float64(o.End-o.Start)/1e6)
		}
	}
	st.lat = summarize(lat)
	red := map[target][]float64{}
	for _, o := range win.kept {
		if o.ok() {
			red[o.T] = append(red[o.T], o.Reply.MacReduction)
		}
	}
	if win.keptS > 0 {
		st.throughput = float64(countOK(win.kept)) / win.keptS
	}
	var per []float64
	for _, t := range w.Targets {
		if len(red[t]) > 0 {
			per = append(per, mean(red[t]))
		}
	}
	st.reduction = mean(per)
	return st
}

// serveLayers derives the cluster and serve layer metrics of a traced
// window from the client outcomes, the reply bodies and the program's
// handler spans, and returns every span with its parent linked.
func serveLayers(outs []outcome, progSpans []span, gateway bool) (map[string]float64, []span) {
	byReq := map[int64][]span{}
	for _, s := range progSpans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var (
		all                                 []span
		hop, handler, overhead, queue       []float64
		infer, batch, reduction             []float64
		clientSelf, clusterSelf             []float64
		attempts, rejects, answered, nextID int64
		share                               = map[string]int64{}
	)
	for _, o := range outs {
		switch o.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			rejects++
		}
		nextID++
		cs := span{ID: nextID, Name: "client", Req: o.Req, Start: o.Start, End: o.End}
		all = append(all, cs)
		var gw *span
		var serves []span
		for _, s := range byReq[o.Req] {
			if s.Name == "cluster" {
				gw = &s
			} else {
				serves = append(serves, s)
			}
		}
		parent := cs.ID
		if gw != nil {
			nextID++
			gw.ID, gw.Parent, parent = nextID, cs.ID, nextID
			all = append(all, *gw)
		}
		for i := range serves {
			nextID++
			serves[i].ID, serves[i].Parent = nextID, parent
			share[serves[i].Where]++
		}
		all = append(all, serves...)
		attempts += int64(len(serves))
		if !o.ok() {
			continue
		}
		var ans *span
		for i := range serves {
			if !gateway || serves[i].Where == o.Replica {
				ans = &serves[i]
			}
		}
		if ans == nil {
			continue
		}
		answered++
		hus := float64(ans.dur()) / 1e3
		hop = append(hop, float64(o.End-o.Start)/1e3-hus)
		handler = append(handler, hus)
		overhead = append(overhead, hus-float64(o.Reply.QueueUS+o.Reply.InferUS))
		queue = append(queue, float64(o.Reply.QueueUS))
		infer = append(infer, float64(o.Reply.InferUS))
		batch = append(batch, float64(o.Reply.BatchSize))
		reduction = append(reduction, o.Reply.MacReduction)
		if gw != nil {
			clientSelf = append(clientSelf, float64(selfTime(cs, []span{*gw}))/1e3)
			clusterSelf = append(clusterSelf, float64(selfTime(*gw, serves))/1e3)
		} else {
			clientSelf = append(clientSelf, float64(selfTime(cs, serves))/1e3)
		}
	}
	var busiest int64
	for _, n := range share {
		busiest = max(busiest, n)
	}
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	h, hd, q := summarize(hop), summarize(handler), summarize(queue)
	return map[string]float64{
		"cluster.hop_us_p50":        h.P50,
		"cluster.hop_us_p99":        h.Tail,
		"cluster.attempts_per_req":  frac(attempts, int64(len(outs))),
		"cluster.replica_share_max": frac(busiest, attempts),
		"cluster.self_us_p50":       summarize(clusterSelf).P50,
		"client.self_us_p50":        summarize(clientSelf).P50,
		"serve.handler_us_p50":      hd.P50,
		"serve.handler_us_p99":      hd.Tail,
		"serve.queue_us_p50":        q.P50,
		"serve.queue_us_p99":        q.Tail,
		"serve.infer_us_p50":        summarize(infer).P50,
		"serve.batch_mean":          mean(batch),
		"serve.mac_reduction_mean":  mean(reduction),
		"serve.overhead_us_p50":     summarize(overhead).P50,
		"serve.reject_frac":         frac(rejects, int64(len(outs))),
		"trace.spans_matched_frac":  frac(answered, int64(len(outs))),
	}, all
}
