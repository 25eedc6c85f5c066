// Command benchdiff compares a fresh benchjson record against a
// checked-in baseline and fails when a gated benchmark regresses. It is
// the perf-regression gate for the execution kernel: `make ci` reruns
// BenchmarkLayerPlanRun, converts it with benchjson, and diffs the
// result against the tracked BENCH_PR7.json.
//
//	go run ./internal/tools/benchdiff -baseline BENCH_PR7.json -current /tmp/gate.json \
//	    -bench 'BenchmarkLayerPlanRun/' -max-regress 10
//
// Benchmarks are matched by name with the trailing -GOMAXPROCS suffix
// stripped, so records from machines with different core counts still
// line up. Duplicate entries (e.g. -count=N runs) collapse to their
// minimum ns/op — the least-noisy estimator on a shared machine — on
// both sides before comparing. Exit status: 0 clean, 1 regression over
// the threshold, 2 usage or no overlapping benchmarks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

type result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type file struct {
	Results []result `json:"results"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// load reads a benchjson document and collapses it to name → min ns/op.
func load(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	mins := make(map[string]float64)
	for _, r := range f.Results {
		name := procSuffix.ReplaceAllString(r.Name, "")
		if r.NsPerOp <= 0 {
			continue
		}
		if cur, ok := mins[name]; !ok || r.NsPerOp < cur {
			mins[name] = r.NsPerOp
		}
	}
	return mins, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, loads both records, compares them,
// and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "checked-in benchjson baseline (required)")
	current := fs.String("current", "", "freshly generated benchjson record (required)")
	benchRe := fs.String("bench", ".", "regexp selecting which benchmarks gate")
	maxRegress := fs.Float64("max-regress", 10, "max allowed ns/op regression, percent")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *baseline == "" || *current == "" {
		fmt.Fprintln(stderr, "benchdiff: -baseline and -current are required")
		return 2
	}
	sel, err := regexp.Compile(*benchRe)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff: bad -bench regexp:", err)
		return 2
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	names := make([]string, 0, len(base))
	for name := range base {
		if sel.MatchString(name) {
			if _, ok := cur[name]; ok {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchdiff: no benchmarks matching %q present in both records\n", *benchRe)
		return 2
	}
	if compare(base, cur, names, *maxRegress, stdout) {
		fmt.Fprintf(stderr, "benchdiff: regression over %.1f%% against %s\n", *maxRegress, *baseline)
		return 1
	}
	return 0
}

// compare prints one verdict line per named benchmark and reports
// whether any regressed by more than maxRegress percent.
func compare(base, cur map[string]float64, names []string, maxRegress float64, w io.Writer) (failed bool) {
	for _, name := range names {
		b, c := base[name], cur[name]
		delta := (c/b - 1) * 100
		verdict := "ok"
		if delta > maxRegress {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-55s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n", name, b, c, delta, verdict)
	}
	return failed
}
