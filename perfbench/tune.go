package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"snapea/internal/atomicfile"
	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
	"snapea/internal/train"
)

// The tune workload runs cmd/snapea-tune's pipeline in the program
// process through the same public functions, timing each stage as a
// span. Set-up is the model build plus dataset generation; one tune job
// is calibrate → features → head → compile → Algorithm 1 (checkpoint
// saves included) → params written.

// tuneSetup is one timed set-up: a fresh model and its samples.
type tuneSetup struct {
	m       *models.Model
	samples []dataset.Sample
	times   setupTimes
}

// setupTimes is what the report keeps of a set-up; keeping the models
// too would add every set-up to the peak RSS.
type setupTimes struct {
	BuildS float64 `json:"build_s"`
	GenS   float64 `json:"generate_s"`
}

func newTuneSetup() (*tuneSetup, error) {
	t0 := time.Now()
	m, err := models.Build(tuneNet, models.Options{Seed: tuneSeed})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	samples := dataset.Generate(tuneTrain+tuneOptImages, dataset.Config{HW: m.InputShape.H, Seed: tuneSeed + 1})
	t2 := time.Now()
	return &tuneSetup{m: m, samples: samples, times: setupTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()}}, nil
}

// tuneJob is what one tune job reports.
type tuneJob struct {
	Spans      []span  `json:"spans"` // [0] is the job, the rest its stages
	Saves      int     `json:"checkpoint_saves"`
	Params     string  `json:"params"`
	BaseAcc    float64 `json:"base_acc"`
	FinalAcc   float64 `json:"final_acc"`
	Reduction  float64 `json:"mac_reduction"`
	CPUS       float64 `json:"cpu_s"`
	Steal      float64 `json:"steal_frac"` // machine-wide, over the job
	Wrong      int     `json:"sweep_wrong"`
	Probes     int     `json:"sweep_probes"`
	ExactClass int     `json:"exact_classes"`
	PredClass  int     `json:"predictive_classes"`
}

func (j *tuneJob) quiet() bool { return j.Steal <= quietSteal }

// tuneReport is the tune program's stdout.
type tuneReport struct {
	Setups []setupTimes `json:"setups"`
	Jobs   []*tuneJob   `json:"jobs"`
	// RSSMB is the peak RSS after the set-ups and the first job. The
	// number of jobs depends on steal, and each job raises the peak.
	RSSMB float64 `json:"rss_mb"`
}

// A tune job cannot be cut into slices like a serving window, and a
// hypervisor that steals a tenth of the CPU slows it by a third. So the
// program runs jobs until their time reaches the window and at least one
// of them was quiet (at most quietSteal of the machine's CPU stolen
// while it ran), starting none that would end past maxJobWindows
// windows; the load process times the quiet jobs, or the least-stolen
// one if none was.
const maxJobWindows = 2

func runTuneProgram(outDir string, seconds int) (*tuneReport, error) {
	rep := &tuneReport{}
	// As many set-ups as every workload makes; the last one is tuned.
	var su *tuneSetup
	for i := 0; i < setups; i++ {
		var err error
		if su, err = newTuneSetup(); err != nil {
			return nil, err
		}
		rep.Setups = append(rep.Setups, su.times)
	}
	window := time.Duration(seconds) * time.Second
	var measured time.Duration
	quiet := false
	for i := 0; ; i++ {
		if i > 0 {
			var err error
			if su, err = newTuneSetup(); err != nil {
				return nil, err
			}
		}
		job, err := runTuneJob(su, filepath.Join(outDir, fmt.Sprintf("tune-%d.params.json", i)))
		if err != nil {
			return nil, err
		}
		rep.Jobs = append(rep.Jobs, job)
		if i == 0 {
			rep.RSSMB = peakRSSMB()
		}
		quiet = quiet || job.quiet()
		d := time.Duration(job.Spans[0].dur())
		measured += d
		if measured >= window && (quiet || measured+d > maxJobWindows*window) {
			return rep, nil
		}
	}
}

// stageClock records consecutive stage spans as children of the job
// span, which has ID 1 (parent 0 means none).
type stageClock struct{ spans []span }

func (c *stageClock) stage(name string, fn func() error) error {
	s := span{ID: int64(len(c.spans) + 1), Parent: 1, Name: name, Start: time.Now().UnixNano()}
	err := fn()
	s.End = time.Now().UnixNano()
	c.spans = append(c.spans, s)
	return err
}

func runTuneJob(su *tuneSetup, paramsPath string) (*tuneJob, error) {
	m := su.m
	trainSet, optSet := su.samples[:tuneTrain], su.samples[tuneTrain:]
	ckptPath := paramsPath + ".ckpt"
	job := &tuneJob{Params: paramsPath}
	s0, t0 := stealClock()
	clk := &stageClock{spans: []span{{ID: 1, Name: "tune", Start: time.Now().UnixNano()}}}
	cpu0 := cpuSeconds()

	var res *snapea.Result
	var saveNS int64
	var feats [][]float32
	err := clk.stage("calib.calibrate", func() error {
		imgs := make([]*tensor.Tensor, tuneCalib)
		for i := range imgs {
			imgs[i] = trainSet[i].Image
		}
		calib.Calibrate(m, imgs)
		return nil
	})
	trImgs := make([]*tensor.Tensor, len(trainSet))
	trLabels := make([]int, len(trainSet))
	for i, s := range trainSet {
		trImgs[i], trLabels[i] = s.Image, s.Label
	}
	if err == nil {
		err = clk.stage("train.features", func() error { feats = train.Features(m, trImgs); return nil })
	}
	if err == nil {
		err = clk.stage("train.head", func() error {
			train.TrainHead(m.Head, feats, trLabels, train.Config{Seed: tuneSeed})
			return nil
		})
	}
	imgs := make([]*tensor.Tensor, len(optSet))
	lbls := make([]int, len(optSet))
	for i, s := range optSet {
		imgs[i], lbls[i] = s.Image, s.Label
	}
	var opt *snapea.Optimizer
	if err == nil {
		err = clk.stage("snapea.compile", func() error {
			opt = snapea.NewOptimizer(snapea.CompileExact(m), m.Head, imgs, lbls, snapea.OptConfig{Epsilon: tuneEps})
			return nil
		})
	}
	if err == nil {
		err = clk.stage("snapea.optimizer", func() error {
			ck := snapea.NewOptCheckpoint(tuneNet, tuneEps)
			opt.SetCheckpoint(ck, func(ck *snapea.OptCheckpoint) error {
				t := time.Now()
				err := ck.Save(ckptPath)
				saveNS += time.Since(t).Nanoseconds()
				job.Saves++
				return err
			})
			var err error
			res, err = opt.RunCtx(context.Background())
			return err
		})
	}
	if err == nil {
		err = clk.stage("snapea.write", func() error {
			enc, err := res.File(tuneNet, tuneEps).Marshal()
			if err != nil {
				return err
			}
			if err := atomicfile.WriteFile(paramsPath, enc, 0o644); err != nil {
				return err
			}
			return os.Remove(ckptPath)
		})
	}
	if err != nil {
		return nil, err
	}
	clk.spans[0].End = time.Now().UnixNano()
	if s1, t1 := stealClock(); t1 > t0 {
		job.Steal = float64(s1-s0) / float64(t1-t0)
	}
	job.CPUS = cpuSeconds() - cpu0
	// The checkpoint saves ran inside the optimizer stage; record their
	// summed time as one child span of it so self time subtracts them.
	opt0 := clk.spans[len(clk.spans)-2]
	clk.spans = append(clk.spans, span{ID: int64(len(clk.spans) + 1), Parent: opt0.ID, Name: "snapea.checkpoint", Start: opt0.Start, End: opt0.Start + saveNS})
	job.Spans = clk.spans
	job.BaseAcc, job.FinalAcc = res.BaseAcc, res.FinalAcc

	// Outside the timed job: the tuned network's MAC reduction on the
	// optimisation set, and the correctness sweep over the probe set.
	tuned := snapea.Compile(m, res.Params, snapea.NegByMagnitude)
	trace := snapea.NewNetTrace()
	for _, img := range imgs {
		tuned.Forward(img, snapea.RunOpts{}, trace)
	}
	job.Reduction = trace.Reduction()
	// The optimizer re-plans its network while it searches, so the sweep
	// compiles a fresh exact one.
	job.Probes, job.Wrong, job.ExactClass, job.PredClass = sweepInProcess(m, snapea.CompileExact(m), tuned)
	return job, nil
}

// sweepInProcess checks the probe set through the tuned model's exact
// network (against the dense Graph.Forward) and its predictive network
// run as one batch (against batch-1 forwards), counting wrong answers
// and distinct classes per mode.
func sweepInProcess(m *models.Model, exactNet, predNet *snapea.Network) (probes, wrong, exactClasses, predClasses int) {
	in := probeInputs(m)
	batched := predNet.Forward(calib.Stack(in), snapea.RunOpts{}, nil)
	ec, pc := map[int]bool{}, map[int]bool{}
	for i, img := range in {
		want := m.Graph.Forward(img).Data()
		got := exactNet.Forward(img, snapea.RunOpts{}, nil).Data()
		if checkAnswer(exact, got, want) != nil {
			wrong++
		}
		ec[argmax(got)] = true
		want = predNet.Forward(img, snapea.RunOpts{}, nil).Data()
		got = batched.Batch(i).Data()
		if checkAnswer(predictive, got, want) != nil {
			wrong++
		}
		pc[argmax(got)] = true
	}
	return 2 * len(in), wrong, len(ec), len(pc)
}

// runTune runs the tune workload: the program process sets up, tunes
// for the window and sweeps; the load process checks what it wrote.
func (b *bench) runTune(ctx context.Context) (*result, error) {
	runtime.GOMAXPROCS(loadProcs)
	p, _, err := b.launch(ctx, nil)
	if err != nil {
		return nil, err
	}
	if _, err := p.stop(ctx); err != nil {
		return nil, err
	}
	var rep tuneReport
	lines := strings.Split(strings.TrimSpace(p.out.buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || len(rep.Jobs) == 0 {
		return nil, fmt.Errorf("tune program report: %v", err)
	}
	m, err := models.Build(tuneNet, models.Options{Seed: tuneSeed})
	if err != nil {
		return nil, err
	}
	fixture, err := os.ReadFile(fixturePath(b.root, tuneNet))
	if err != nil {
		return nil, err
	}

	timed := timedJobs(rep.Jobs)
	var (
		okJobs, okTimed      int
		probes, wrong        int
		lat, red, cpu, steal []float64
		jobsS                float64
		all                  []span
		stage                = map[string][]float64{}
	)
	for i, job := range rep.Jobs {
		data, err := checkTuneJob(job, m)
		if err != nil {
			b.rec.TimedWrong = append(b.rec.TimedWrong, fmt.Sprintf("tune job %d: %v", i, err))
		} else {
			okJobs++
		}
		if !bytes.Equal(data, fixture) {
			b.rec.Notes = append(b.rec.Notes, fmt.Sprintf("tune job %d params differ from fixtures/%s.params.json", i, tuneNet))
		}
		red = append(red, job.Reduction)
		probes, wrong = probes+job.Probes, wrong+job.Wrong
		b.rec.Classes = map[string]int{tuneNet + "/exact": job.ExactClass, tuneNet + "/predictive": job.PredClass}
		b.rec.SweepWrong = map[string]int{tuneNet: job.Wrong}
		for _, s := range job.Spans {
			s.Req = int64(i)
			all = append(all, s)
		}
		if !timed[i] {
			continue
		}
		if err == nil {
			okTimed++
			lat = append(lat, float64(job.Spans[0].dur())/1e6)
		}
		cpu = append(cpu, job.CPUS*1e3)
		jobsS += float64(job.Spans[0].dur()) / 1e9
		steal = append(steal, job.Steal)

		var children []span
		for _, s := range job.Spans[1:] {
			s.Req = int64(i)
			if s.Parent == job.Spans[0].ID {
				children = append(children, s)
			}
			stage[s.Name] = append(stage[s.Name], float64(s.dur())/1e9)
		}
		var opt span
		for _, s := range children {
			if s.Name == "snapea.optimizer" {
				opt = s
			}
		}
		var ckpt []span
		for _, s := range job.Spans[1:] {
			if s.Parent == opt.ID && s.Name == "snapea.checkpoint" {
				ckpt = append(ckpt, s)
			}
		}
		stage["optimizer.self"] = append(stage["optimizer.self"], float64(selfTime(opt, ckpt))/1e9)
		stage["saves"] = append(stage["saves"], float64(job.Saves))
		root := job.Spans[0]
		stage["cover"] = append(stage["cover"], 1-float64(selfTime(root, children))/float64(root.dur()))
	}
	b.rec.StealFrac = mean(steal)
	var setupS, buildS, genS []float64
	for _, s := range rep.Setups {
		setupS, buildS, genS = append(setupS, s.BuildS+s.GenS), append(buildS, s.BuildS), append(genS, s.GenS)
	}
	b.rec.SetupS = setupS
	l := summarize(lat)
	b.rec.Samples, b.rec.TailPct = l.N, l.TailPc
	res := &result{Correct: len(b.rec.TimedWrong) == 0, Attempted: int64(len(rep.Jobs)), Failed: int64(len(rep.Jobs) - okJobs)}
	if !b.traced {
		res.Metrics = complete(endToEnd, map[string]float64{
			"setup_s":        median(setupS),
			"latency_p50_ms": l.P50,
			"latency_p99_ms": l.Tail,
			"throughput_rps": float64(okTimed) / jobsS,
			"cpu_ms_per_req": mean(cpu),
			"ok_frac":        float64(okJobs) / float64(len(rep.Jobs)),
			"sweep_ok_frac":  1 - float64(wrong)/float64(probes),
			"rss_peak_mb":    rep.RSSMB,
			"mac_reduction":  mean(red),
		})
		return res, nil
	}
	if err := writeJSON(filepath.Join(b.out, fmt.Sprintf("spans-%s-%d.json", b.w.Name, b.seed)), all); err != nil {
		return nil, err
	}
	// The stage clock defines tune_s, so it runs in both variants and the
	// traced run adds nothing to measure: its overhead metrics stay 0.
	layers := map[string]float64{
		"models.build_s":          median(buildS),
		"dataset.generate_s":      median(genS),
		"calib.calibrate_s":       median(stage["calib.calibrate"]),
		"train.features_s":        median(stage["train.features"]),
		"train.head_s":            median(stage["train.head"]),
		"snapea.compile_s":        median(stage["snapea.compile"]),
		"snapea.optimizer_s":      median(stage["optimizer.self"]),
		"snapea.checkpoint_s":     median(stage["snapea.checkpoint"]),
		"snapea.checkpoint_saves": median(stage["saves"]),
		"tune.span_cover_frac":    median(stage["cover"]),
	}
	if err := b.addLedger(layers, nil); err != nil {
		return nil, err
	}
	res.Metrics = complete(perLayer(), layers)
	return res, nil
}

// timedJobs marks the jobs whose times count: the quiet ones, or the
// least-stolen one when none was quiet.
func timedJobs(jobs []*tuneJob) []bool {
	timed := make([]bool, len(jobs))
	least := 0
	for i, j := range jobs {
		timed[i] = j.quiet()
		if j.Steal < jobs[least].Steal {
			least = i
		}
	}
	if !slices.Contains(timed, true) {
		timed[least] = true
	}
	return timed
}

// checkTuneJob checks a tune job's params file as serve would load it:
// checksums required, fitting the model, and within the accuracy budget
// ε on the optimisation set. It returns the file's bytes.
func checkTuneJob(job *tuneJob, m *models.Model) ([]byte, error) {
	data, err := os.ReadFile(job.Params)
	if err != nil {
		return nil, err
	}
	f, err := snapea.ParseParamsChecked(data, true)
	if err != nil {
		return data, err
	}
	if err := f.Check(m); err != nil {
		return data, err
	}
	if loss := job.BaseAcc - job.FinalAcc; loss > tuneEps {
		return data, fmt.Errorf("accuracy loss %.4f exceeds ε %.2f", loss, tuneEps)
	}
	if f.BaseAcc != job.BaseAcc || f.FinalAcc != job.FinalAcc {
		return data, fmt.Errorf("params file accuracies %v/%v, optimizer reported %v/%v", f.BaseAcc, f.FinalAcc, job.BaseAcc, job.FinalAcc)
	}
	return data, nil
}
