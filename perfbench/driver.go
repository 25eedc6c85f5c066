package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"snapea/internal/metrics"
	"snapea/internal/tensor"
)

// The load process runs with loadProcs Ps and the program process with
// programProcs, so on a two-core machine the program has both cores and
// the load generator contends for at most one.
const (
	loadProcs    = 1
	programProcs = 2
	setups       = 5 // set-ups per run; setup_s is their median
	warmup       = time.Second
	runBudget    = 170 * time.Second
)

// bench is one benchmark run.
type bench struct {
	root    string
	w       *workload
	seed    uint64
	seconds int
	traced  bool

	out string // .bench_build/out
	rec *runRecord

	mu    sync.Mutex // guards procs
	procs []*proc
}

// proc is a running program process.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string // entry URL
	out   *lineWriter
	done  chan struct{}
	err   error
}

func (b *bench) run() (*result, error) {
	b.out = filepath.Join(b.root, ".bench_build", "out")
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	b.rec = newRunRecord(b)
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var res *result
	var err error
	if b.w.Name == "tune" {
		res, err = b.runTune(ctx)
	} else {
		res, err = b.runServe(ctx)
	}
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("record-%s-%d-%d.json", b.w.Name, b.seed, btoi(b.traced))
	if err := writeJSON(filepath.Join(b.out, name), b.rec); err != nil {
		return nil, err
	}
	rec, _ := json.Marshal(b.rec)
	fmt.Fprintf(os.Stderr, "perfbench: run record %s\n", rec)
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spansPath is where the program process writes its spans.
func (b *bench) spansPath() string {
	return filepath.Join(b.out, fmt.Sprintf("program-spans-%s-%d.json", b.w.Name, b.seed))
}

// launch starts a program process and waits until it answers /readyz
// (and, behind a gateway, reports every replica healthy). It returns the
// seconds from launch to ready.
func (b *bench) launch(ctx context.Context, client *http.Client) (*proc, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-program", b.w.Name, "-root", b.root, "-seconds", strconv.Itoa(b.seconds)}
	if b.traced || b.w.Name == "tune" {
		args = append(args, "-spans", b.spansPath())
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", programProcs))
	cmd.Stderr = os.Stderr
	out := newLineWriter()
	cmd.Stdout = out
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &proc{cmd: cmd, stdin: stdin, out: out, done: make(chan struct{})}
	b.mu.Lock()
	b.procs = append(b.procs, p)
	b.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	if b.w.Name == "tune" {
		return p, 0, nil
	}
	line, err := p.next(ctx)
	if err != nil {
		return nil, 0, err
	}
	addr, found := strings.CutPrefix(line, "addr ")
	if !found {
		return nil, 0, fmt.Errorf("program did not report its address (got %q)", line)
	}
	p.base = "http://" + addr
	for !b.ready(ctx, client, p.base) {
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("program exited before ready: %v", p.err)
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
	return p, time.Since(start).Seconds(), nil
}

// ready reports /readyz 200 and, behind a gateway, both replicas healthy.
func (b *bench) ready(ctx context.Context, client *http.Client, base string) bool {
	body, code, err := get(ctx, client, base+"/readyz")
	if err != nil || code != http.StatusOK {
		return false
	}
	if !b.w.Gateway {
		return true
	}
	body, code, err = get(ctx, client, base+"/v1/replicas")
	if err != nil || code != http.StatusOK {
		return false
	}
	var reps struct {
		Replicas []struct {
			Healthy bool `json:"healthy"`
		} `json:"replicas"`
	}
	if json.Unmarshal(body, &reps) != nil || len(reps.Replicas) != 2 {
		return false
	}
	for _, r := range reps.Replicas {
		if !r.Healthy {
			return false
		}
	}
	return true
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// lineWriter collects the program's standard output and hands each
// complete line to lines. The program prints its address and then one
// line per cpu command, so a full buffer means a protocol bug; the line
// is dropped and the wait for it times out.
type lineWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	off   int
	lines chan string
}

func newLineWriter() *lineWriter { return &lineWriter{lines: make(chan string, 16)} }

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf.Write(p)
	for {
		rest := lw.buf.Bytes()[lw.off:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return len(p), nil
		}
		select {
		case lw.lines <- string(rest[:i]):
		default:
		}
		lw.off += i + 1
	}
}

// next waits for the program's next output line.
func (p *proc) next(ctx context.Context) (string, error) {
	select {
	case line := <-p.out.lines:
		return line, nil
	case <-p.done:
		return "", fmt.Errorf("program exited: %v", p.err)
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// cpu asks the program for the CPU time (user plus system) it has used.
func (p *proc) cpu(ctx context.Context) (float64, error) {
	if err := p.command("cpu"); err != nil {
		return 0, err
	}
	line, err := p.next(ctx)
	if err != nil {
		return 0, err
	}
	v, found := strings.CutPrefix(line, "cpu ")
	if !found {
		return 0, fmt.Errorf("program answered %q to cpu", line)
	}
	return strconv.ParseFloat(v, 64)
}

// command sends one control line to the program process.
func (p *proc) command(c string) error {
	_, err := io.WriteString(p.stdin, c+"\n")
	return err
}

// stop asks the program to drain and exit, waits for it, and returns its
// peak resident set in MB.
func (p *proc) stop(ctx context.Context) (float64, error) {
	// A program that already exited (tune) cannot take the command; its
	// exit status below is what counts.
	_ = p.command("exit")
	p.stdin.Close()
	select {
	case <-p.done:
	case <-ctx.Done():
		p.cmd.Process.Kill()
		<-p.done
		return 0, fmt.Errorf("program did not exit: %w", ctx.Err())
	}
	if p.err != nil {
		return 0, fmt.Errorf("program: %w", p.err)
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for the program process")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// stopAll kills whatever program process is still running and waits for
// it; a run that succeeded has stopped them all already.
func (b *bench) stopAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.procs {
		select {
		case <-p.done:
		default:
			p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// newClient is the load generator's client: unencrypted HTTP/2 with
// prior knowledge, so one connection carries every request in flight.
func newClient() *http.Client {
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{Protocols: &protos}}
}

// predictReply is the part of serve's /v1/predict reply the benchmark
// reads.
type predictReply struct {
	Logits       []float32 `json:"logits"`
	BatchSize    int       `json:"batch_size"`
	QueueUS      int64     `json:"queue_us"`
	InferUS      int64     `json:"infer_us"`
	MacReduction float64   `json:"mac_reduction"`
}

// outcome is one timed request as the client saw it.
type outcome struct {
	Req        int64
	T          target
	Input      int
	Start, End int64 // Unix ns
	Status     int   // 0 on a transport error
	Wrong      bool
	Why        string
	Reply      predictReply
	Replica    string
}

func (o *outcome) ok() bool { return o.Status == http.StatusOK && !o.Wrong }

// model holds one served model's inputs and reference answers.
type model struct {
	timed, probe         []*tensor.Tensor
	rawTimed, rawProbe   [][]byte
	jsonTimed, jsonProbe [][]byte
	// ref[mode][i] are the reference logits for timed input i, and
	// probeRef[mode][i] for probe input i.
	ref, probeRef map[string][][]float32
}

func rawBody(t *tensor.Tensor) []byte {
	buf := make([]byte, 4*len(t.Data()))
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

func jsonBody(t *tensor.Tensor) []byte {
	data, err := json.Marshal(struct {
		Input []float32 `json:"input"`
	}{t.Data()})
	if err != nil {
		panic(err) // finite float32s always marshal
	}
	return data
}

// sender posts predictions and checks each answer.
type sender struct {
	client *http.Client
	base   string
	json   bool
	models map[string]*model
	nextID atomic.Int64
}

func (s *sender) send(ctx context.Context, t target, input int, probe bool) outcome {
	m := s.models[t.Model]
	body, ctype := m.rawTimed, "application/octet-stream"
	if s.json {
		body, ctype = m.jsonTimed, "application/json"
	}
	want := m.ref[t.Mode]
	if probe {
		body, want = m.rawProbe, m.probeRef[t.Mode]
		if s.json {
			body = m.jsonProbe
		}
	}
	o := outcome{Req: s.nextID.Add(1), T: t, Input: input}
	url := fmt.Sprintf("%s/v1/predict?model=%s&mode=%s", s.base, t.Model, t.Mode)
	if !probe {
		url += "&bench_id=" + strconv.FormatInt(o.Req, 10)
	}
	o.Start = time.Now().UnixNano()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body[input]))
	if err != nil {
		o.Why = err.Error()
		return o
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := s.client.Do(req)
	if err != nil {
		o.End, o.Why = time.Now().UnixNano(), err.Error()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.End = time.Now().UnixNano()
	if err != nil {
		o.Why = err.Error()
		return o
	}
	o.Status, o.Replica = resp.StatusCode, resp.Header.Get("X-Snapea-Replica")
	if o.Status != http.StatusOK {
		o.Why = strings.TrimSpace(string(data))
		return o
	}
	if err := json.Unmarshal(data, &o.Reply); err != nil {
		o.Wrong, o.Why = true, "undecodable reply: "+err.Error()
		return o
	}
	if err := checkAnswer(t.Mode, o.Reply.Logits, want[input]); err != nil {
		o.Wrong, o.Why = true, err.Error()
	}
	return o
}

// schedule yields each caller's next (target, input). Caller i of C
// owns Targets[i*T/C] up to Targets[(i+1)*T/C], and at least one: with
// more callers than targets each sends to one, and a lone caller draws
// each request's target from all of them. Inputs cycle through the
// model's set from a seeded offset.
type schedule struct {
	targets []target
	rng     *tensor.RNG
	next    int
}

func newSchedule(w *workload, seed uint64, caller int) *schedule {
	rng := tensor.NewRNG(seed*7919 + uint64(caller) + 1)
	n := len(w.Targets)
	lo := caller * n / w.Callers
	hi := max((caller+1)*n/w.Callers, lo+1)
	return &schedule{targets: w.Targets[lo:hi], rng: rng, next: rng.Intn(inputsPerModel)}
}

func (s *schedule) pick() (target, int) {
	t := s.targets[0]
	if len(s.targets) > 1 {
		t = s.targets[s.rng.Intn(len(s.targets))]
	}
	i := s.next
	s.next = (i + 1) % inputsPerModel
	return t, i
}

// run drives the closed-loop callers until stop is set and returns
// every outcome.
func (s *sender) run(ctx context.Context, w *workload, seed uint64, stop *atomic.Bool) []outcome {
	per := make([][]outcome, w.Callers)
	var wg sync.WaitGroup
	for c := 0; c < w.Callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sch := newSchedule(w, seed, c)
			for !stop.Load() && ctx.Err() == nil {
				t, i := sch.pick()
				per[c] = append(per[c], s.send(ctx, t, i, false))
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, outs := range per {
		all = append(all, outs...)
	}
	return all
}

// warm runs the callers for d and discards what they measured.
func (s *sender) warm(ctx context.Context, w *workload, seed uint64, d time.Duration) {
	var stop atomic.Bool
	t := time.AfterFunc(d, func() { stop.Store(true) })
	defer t.Stop()
	s.run(ctx, w, seed, &stop)
}

// The machine is a VM whose hypervisor steals CPU in bursts, and stolen
// time inflates every wall-clock number. So the load runs without a
// break, cut into slices, and a slice is kept only if the hypervisor
// stole at most quietSteal of the CPU in it. The window ends once it has
// kept the requested time or after maxExtra more; then the least-stolen
// of the other slices make up the rest, up to half the requested time
// (see keepQuiet).
const (
	slice      = 100 * time.Millisecond
	quietSteal = 0.05
	maxExtra   = 5 * time.Second
)

// windowResult is one measured window.
type windowResult struct {
	all     []outcome // every request of the window
	kept    []outcome // those that ended in a kept slice
	clean   []outcome // those that began and ended in a run of kept slices
	keptS   float64   // seconds kept
	cpu     float64   // program CPU seconds in the kept slices
	steal   float64   // mean stolen share of the kept slices
	dropped int       // slices dropped as stolen
}

// window runs the callers until d of kept slices are measured. cpu
// reports the program's CPU time, which is charged to each slice.
func (s *sender) window(ctx context.Context, w *workload, seed uint64, d time.Duration, cpu func() (float64, error)) (windowResult, error) {
	want := max(int(d/slice), 1)
	var stop atomic.Bool
	done := make(chan []outcome, 1)
	start := time.Now()
	go func() { done <- s.run(ctx, w, seed, &stop) }()

	var slices []windowSlice
	tk := time.NewTicker(slice)
	s0, t0 := stealClock()
	c0, err := cpu()
	prev := start
	for quiet := 0; err == nil && quiet < want && time.Since(start) < d+maxExtra && ctx.Err() == nil; {
		now := <-tk.C
		s1, t1 := stealClock()
		var c1 float64
		if c1, err = cpu(); err != nil {
			break
		}
		sl := windowSlice{start: prev.UnixNano(), end: now.UnixNano(), cpu: c1 - c0}
		if t1 > t0 {
			sl.steal = float64(s1-s0) / float64(t1-t0)
		}
		if sl.steal <= quietSteal {
			quiet++
		}
		slices = append(slices, sl)
		s0, t0, c0, prev = s1, t1, c1, now
	}
	tk.Stop()
	stop.Store(true)
	all := <-done
	if err != nil {
		return windowResult{}, err
	}
	return keepQuiet(slices, want, all), nil
}

// sweep sends every probe input to every served target, four in
// flight, and counts wrong answers (non-200s included) and distinct
// classes per target.
func (s *sender) sweep(ctx context.Context, w *workload) (probes int, wrong, classes map[string]int) {
	type job struct {
		t target
		i int
	}
	var jobs []job
	for _, t := range w.Targets {
		for i := range s.models[t.Model].probe {
			jobs = append(jobs, job{t, i})
		}
	}
	outs := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(len(jobs)); j = next.Add(1) - 1 {
				outs[j] = s.send(ctx, jobs[j].t, jobs[j].i, true)
			}
		}()
	}
	wg.Wait()
	wrong, classes = map[string]int{}, map[string]int{}
	seen := map[string]map[int]bool{}
	for _, o := range outs {
		k := o.T.String()
		wrong[k] += 0
		if !o.ok() {
			wrong[k]++
			continue
		}
		if seen[k] == nil {
			seen[k] = map[int]bool{}
		}
		seen[k][argmax(o.Reply.Logits)] = true
		classes[k] = len(seen[k])
	}
	return len(outs), wrong, classes
}

// integrityCounts sums the integrity.* runtime counters on /metricsz.
func integrityCounts(ctx context.Context, client *http.Client, base string) (map[string]int64, error) {
	body, code, err := get(ctx, client, base+"/metricsz")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metricsz answered %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("/metricsz: %w", err)
	}
	out := map[string]int64{}
	if snap.Runtime != nil {
		for _, p := range snap.Runtime.Counters {
			if strings.HasPrefix(p.Name, "integrity.") {
				out[p.Name] += p.Value
			}
		}
	}
	return out, nil
}

// stealClock reads the machine's CPU time stolen by the hypervisor and
// its total CPU time, in clock ticks: stolen time inflates every
// wall-clock metric, so the window's slices and the tune jobs are
// judged by it.
func stealClock() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name for the run record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// loadAvg is the 1, 5 and 15 minute load average.
func loadAvg() string {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return ""
	}
	f := func(v uint64) float64 { return float64(v) / 65536 }
	return fmt.Sprintf("%.2f %.2f %.2f", f(si.Loads[0]), f(si.Loads[1]), f(si.Loads[2]))
}
