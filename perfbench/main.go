// Command perfbench is the repository's benchmark: it drives the serving
// stack (serve, cluster) and the offline tuning pipeline (calib, train,
// snapea's Algorithm 1) through their public entry points, checks every
// answer, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload batched --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and the layer each metric belongs to are described
// in perfbench/README.md. With --trace 0 the result holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics from a traced
// run. The same binary, started with -program, is the program process
// the load is sent to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: interactive, batched, gateway-light or tune")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	root := flag.String("root", ".", "repository checkout to run in")
	program := flag.String("program", "", "run as the program process for this workload (internal)")
	spans := flag.String("spans", "", "program process: write recorded spans here at exit (internal)")
	flag.Parse()

	abs, err := filepath.Abs(*root)
	if err != nil {
		fail(err)
	}
	w, ok := workloads[*workload]
	if *program != "" {
		w, ok = workloads[*program]
	}
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}

	if *program != "" {
		if err := runProgram(abs, w, *seconds, *spans); err != nil {
			fail(err)
		}
		return
	}

	b := &bench{root: abs, w: w, seed: *seed, seconds: *seconds, traced: *trace == 1}
	// A stopped benchmark stops its program processes too.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		b.stopAll()
		os.Exit(1)
	}()
	res, err := b.run()
	b.stopAll()
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

// runProgram is the program-process entry point.
func runProgram(root string, w *workload, seconds int, spansPath string) error {
	if w.Name != "tune" {
		return runServeProgram(root, w, spansPath, spansPath != "")
	}
	rep, err := runTuneProgram(filepath.Dir(spansPath), seconds)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runRecord is what every run writes next to its result: the machine,
// the runtime, and the background work inside the measured window.
type runRecord struct {
	Workload      string           `json:"workload"`
	Seed          uint64           `json:"seed"`
	Seconds       int              `json:"seconds"`
	Traced        bool             `json:"traced"`
	NumCPU        int              `json:"nproc"`
	GOMAXPROCS    int              `json:"gomaxprocs_program"`
	LoadProcs     int              `json:"gomaxprocs_load"`
	GoVersion     string           `json:"go_version"`
	CPUModel      string           `json:"cpu_model"`
	LoadAvg       string           `json:"loadavg_before"`
	SetupS        []float64        `json:"setup_s"`
	Samples       int              `json:"latency_samples"`
	TailPct       float64          `json:"latency_tail_percentile"`
	Integrity     map[string]int64 `json:"integrity_in_window,omitempty"`
	Classes       map[string]int   `json:"distinct_classes,omitempty"`
	SweepWrong    map[string]int   `json:"sweep_wrong,omitempty"`
	TimedWrong    []string         `json:"timed_wrong,omitempty"`
	Notes         []string         `json:"notes,omitempty"`
	StealFrac     float64          `json:"steal_frac_in_window"`
	SlicesDropped int              `json:"slices_dropped_as_stolen"`
}

func newRunRecord(b *bench) *runRecord {
	return &runRecord{
		Workload:   b.w.Name,
		Seed:       b.seed,
		Seconds:    b.seconds,
		Traced:     b.traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: programProcs,
		LoadProcs:  loadProcs,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadAvg:    loadAvg(),
	}
}
