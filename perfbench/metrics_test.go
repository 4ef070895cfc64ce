package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	RunSeconds int                           `json:"run_seconds"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesDeclaredMetrics pins BENCHMARK.json to the
// metric lists the command prints, names, units and order alike, and its
// workloads to the runners.
func TestBenchmarkFileMatchesDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, file []struct{ Name, Unit string }, specs []metricSpec) {
		if len(file) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(file), len(specs))
			return
		}
		for i := range specs {
			if file[i].Name != specs[i].Name || file[i].Unit != specs[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					kind, i, file[i].Name, file[i].Unit, specs[i].Name, specs[i].Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestEmitPrintsEveryMetric checks that a run prints every metric named in
// BENCHMARK.json, with its unit, as the last line of its output, and that
// it refuses to print a result that misses one.
func TestEmitPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, traced := range []bool{false, true} {
		want := bf.EndToEnd
		if traced {
			want = bf.PerLayer
		}
		rep := newReport()
		rep.attempted = 3
		for i, m := range want {
			rep.set(m.Name, float64(i)+0.5, 1)
		}
		var out bytes.Buffer
		if err := rep.emit(&out, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the JSON result: %v", err)
		}
		if !res.Correct || res.Attempted != 3 || res.Failed != 0 {
			t.Errorf("header fields: %+v", res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: printed %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s printed as %+v (present %v)", traced, m.Name, got, ok)
			}
		}

		delete(rep.values, want[0].Name)
		if err := rep.emit(&bytes.Buffer{}, traced); err == nil {
			t.Errorf("traced=%v: emit printed a result without %s", traced, want[0].Name)
		}
	}
}

// TestIncorrectRunExitsNonZero runs the command on a stand-in workload and
// checks that a failed correctness gate still prints the JSON result,
// marked incorrect, and makes the command exit 1, while a run whose gates
// hold exits 0. Bad arguments exit 2 without a result.
func TestIncorrectRunExitsNonZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("unknown workload printed a result: %q", out.String())
	}

	const name = "gate-test"
	defer delete(workloads, name)
	for _, gateHolds := range []bool{true, false} {
		workloads[name] = func(o options, rep *report) error {
			rep.attempted = 1
			for _, m := range endToEnd {
				rep.set(m.Name, 1.5, 1)
			}
			if !gateHolds {
				rep.fail("growth-rate error over the gate")
			}
			return nil
		}
		out.Reset()
		code := run([]string{"--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut)
		want := 0
		if !gateHolds {
			want = 1
		}
		if code != want {
			t.Errorf("gate holds %v: exit %d, want %d", gateHolds, code, want)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("gate holds %v: last line is not the JSON result: %v", gateHolds, err)
		}
		if res.Correct != gateHolds {
			t.Errorf("gate holds %v: printed correct=%v", gateHolds, res.Correct)
		}
	}
}
