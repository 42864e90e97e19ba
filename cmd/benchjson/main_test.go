package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffFilesAddedRemoved pins the asymmetric-file behavior: a
// benchmark present in only one snapshot is reported by name as ADDED
// or REMOVED, is excluded from the movement comparison, and never
// counts as a regression.
func TestDiffFilesAddedRemoved(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {
			"BenchmarkShared":  {"iterations": 100, "ns_per_op": 1000},
			"BenchmarkRetired": {"iterations": 100, "ns_per_op": 2500}
		}
	}`)
	newPath := writeBench(t, dir, "new.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {
			"BenchmarkShared": {"iterations": 100, "ns_per_op": 1010},
			"BenchmarkFresh":  {"iterations": 100, "ns_per_op": 700}
		}
	}`)
	var buf strings.Builder
	regressions, err := diffFiles(&buf, oldPath, newPath, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Errorf("added/removed benchmarks counted as %d regressions", regressions)
	}
	out := buf.String()
	for _, want := range []string{
		"BenchmarkFresh",
		"ADDED (700 ns/op)",
		"BenchmarkRetired",
		"REMOVED (was 2500 ns/op)",
		"compared 1 benchmarks: 0 faster, 0 slower, 0 alloc changes, 1 added, 1 removed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// TestDiffFilesRegression keeps the gating behavior honest alongside
// the added/removed reporting: a shared benchmark past the threshold
// still counts.
func TestDiffFilesRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {"BenchmarkHot": {"iterations": 100, "ns_per_op": 1000, "allocs_per_op": 0}}
	}`)
	newPath := writeBench(t, dir, "new.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {"BenchmarkHot": {"iterations": 100, "ns_per_op": 1400, "allocs_per_op": 2}}
	}`)
	var buf strings.Builder
	regressions, err := diffFiles(&buf, oldPath, newPath, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 2 {
		t.Errorf("got %d regressions, want 2 (ns/op and allocs/op):\n%s", regressions, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("output does not flag the regression:\n%s", buf.String())
	}
}

// TestParseRepeatedRuns folds -count repeats of one benchmark into a
// single entry (median, run count, quartiles) instead of treating the
// second run as a clash with another package, while a genuine clash —
// the same name in another package — still keys as "pkg:name".
func TestParseRepeatedRuns(t *testing.T) {
	in := `goos: linux
pkg: tsu
BenchmarkX-8   	      10	       100 ns/op	      64 B/op	       2 allocs/op	         3.000 rounds
BenchmarkX-8   	      10	       400 ns/op	      64 B/op	       2 allocs/op	         5.000 rounds
BenchmarkX-8   	      10	       200 ns/op	      64 B/op	       2 allocs/op	         3.000 rounds
BenchmarkX-8   	      10	       300 ns/op	      64 B/op	       4 allocs/op	         3.000 rounds
PASS
pkg: tsu/internal/core
BenchmarkX-8   	      10	       900 ns/op
ok  	tsu/internal/core	0.1s
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2: %v", len(got), got)
	}
	x := got["BenchmarkX"]
	if x.Package != "tsu" || x.Runs != 4 || x.NsPerOp != 250 || x.NsQ1 != 175 || x.NsQ3 != 325 {
		t.Errorf("BenchmarkX = %+v, want package tsu, 4 runs, median 250, quartiles 175..325", x)
	}
	if x.AllocsOp == nil || *x.AllocsOp != 2 || x.BPerOp == nil || *x.BPerOp != 64 || x.Metrics["rounds"] != 3 {
		t.Errorf("BenchmarkX medians = allocs %v, B %v, metrics %v; want 2, 64, rounds 3", x.AllocsOp, x.BPerOp, x.Metrics)
	}
	if other := got["tsu/internal/core:BenchmarkX"]; other.Runs != 1 || other.NsPerOp != 900 {
		t.Errorf("clashing entry = %+v, want one run at 900 ns/op", other)
	}
}

// TestDiffFilesNoiseBand flags an ns/op move only when each median
// lies outside the other snapshot's quartile band.
func TestDiffFilesNoiseBand(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBench(t, dir, "old.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {
			"BenchmarkNoisy":  {"runs": 5, "ns_per_op": 1000, "ns_per_op_q1": 700, "ns_per_op_q3": 1500},
			"BenchmarkSteady": {"runs": 5, "ns_per_op": 1000, "ns_per_op_q1": 980, "ns_per_op_q3": 1020}
		}
	}`)
	newPath := writeBench(t, dir, "new.json", `{
		"schema": "tsu-bench/v1",
		"benchmarks": {
			"BenchmarkNoisy":  {"runs": 5, "ns_per_op": 1400, "ns_per_op_q1": 1300, "ns_per_op_q3": 1500},
			"BenchmarkSteady": {"runs": 5, "ns_per_op": 1400, "ns_per_op_q1": 1380, "ns_per_op_q3": 1420}
		}
	}`)
	var buf strings.Builder
	regressions, err := diffFiles(&buf, oldPath, newPath, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if regressions != 1 || !strings.Contains(out, "BenchmarkSteady") || strings.Contains(out, "BenchmarkNoisy ") {
		t.Errorf("want only BenchmarkSteady flagged, got %d regressions:\n%s", regressions, out)
	}
}
