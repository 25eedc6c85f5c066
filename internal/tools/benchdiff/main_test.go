package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecord writes a benchjson document holding rows and returns its
// path.
func writeRecord(t *testing.T, name string, rows []result) string {
	t.Helper()
	data, err := json.Marshal(file{Results: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	const gated = "BenchmarkLayerPlanRun/workers=1"
	cases := []struct {
		name      string
		base, cur []result
		want      int
		wantOut   string // substring of stdout
	}{
		{
			name: "11% regression fails",
			base: []result{{gated + "-2", 1000}},
			cur:  []result{{gated + "-2", 1110}},
			want: 1, wantOut: "REGRESSION",
		},
		{
			name: "9% slowdown passes",
			base: []result{{gated + "-2", 1000}},
			cur:  []result{{gated + "-2", 1090}},
			want: 0, wantOut: "+9.0%  ok",
		},
		{
			name: "speedup passes",
			base: []result{{gated + "-2", 1000}},
			cur:  []result{{gated + "-2", 500}},
			want: 0, wantOut: "-50.0%  ok",
		},
		{
			name: "count rows collapse to their minimum",
			base: []result{{gated, 1300}, {gated, 1000}, {gated, 1200}},
			cur:  []result{{gated, 1500}, {gated, 1050}, {gated, 1400}},
			want: 0, wantOut: "1000 ->         1050",
		},
		{
			name: "minimum hides no regression",
			base: []result{{gated, 1000}, {gated, 900}},
			cur:  []result{{gated, 1200}, {gated, 1100}},
			want: 1, wantOut: "900 ->         1100",
		},
		{
			name: "GOMAXPROCS suffix is stripped",
			base: []result{{gated + "-8", 1000}},
			cur:  []result{{gated + "-2", 1050}},
			want: 0, wantOut: gated + " ",
		},
		{
			name: "non-positive ns/op rows are ignored",
			base: []result{{gated, 1000}, {gated, 0}},
			cur:  []result{{gated, -5}, {gated, 1080}},
			want: 0, wantOut: "1000 ->         1080",
		},
		{
			name: "only non-positive rows leave no overlap",
			base: []result{{gated, 1000}},
			cur:  []result{{gated, 0}},
			want: 2,
		},
		{
			name: "no overlap exits 2",
			base: []result{{gated, 1000}},
			cur:  []result{{"BenchmarkOther", 1000}},
			want: 2,
		},
		{
			name: "unselected regressions do not gate",
			base: []result{{gated, 1000}, {"BenchmarkConv2DForward/workers=1", 1000}},
			cur:  []result{{gated, 1000}, {"BenchmarkConv2DForward/workers=1", 5000}},
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := writeRecord(t, "base.json", tc.base)
			cur := writeRecord(t, "cur.json", tc.cur)
			var stdout, stderr bytes.Buffer
			got := run([]string{"-baseline", base, "-current", cur,
				"-bench", "BenchmarkLayerPlanRun/", "-max-regress", "10"}, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("stdout %q lacks %q", stdout.String(), tc.wantOut)
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	rec := writeRecord(t, "rec.json", []result{{"BenchmarkX", 1}})
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-current", rec},
		{"-baseline", rec},
		{"-baseline", rec, "-current", rec, "-bench", "("},
		{"-baseline", rec, "-current", filepath.Join(t.TempDir(), "missing.json")},
		{"-baseline", bad, "-current", rec},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(args, &stdout, &stderr); got != 2 {
			t.Errorf("%v: exit %d, want 2", args, got)
		}
	}
}
