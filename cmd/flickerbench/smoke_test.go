package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for flickerbench: the parent
// re-executes its own binary for each workload's child process. Tests run
// with the fixed work cut down, in the children too.
func TestMain(m *testing.M) {
	smoke = true
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(benchMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type specFile struct {
	EndToEnd []specMetric            `json:"end_to_end"`
	PerLayer []specMetric            `json:"per_layer"`
	Workload []struct{ Name string } `json:"workloads"`
}

// TestSmoke runs every workload for about 200 ms, untraced and traced, and
// checks that each metric BENCHMARK.json names is reported with its unit for
// every workload and that no request failed.
func TestSmoke(t *testing.T) {
	var spec specFile
	if err := loadJSON(filepath.Join("..", "..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(spec.Workload), len(workloads))
	}
	for _, sw := range spec.Workload {
		if workloadByName(sw.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", sw.Name)
		}
	}
	dir := t.TempDir()
	for _, pass := range []struct {
		trace string
		file  string
		names []specMetric
	}{{"0", "result.json", spec.EndToEnd}, {"1", "trace.json", spec.PerLayer}} {
		var out bytes.Buffer
		// The exit status may be non-zero: 200 ms is too short for the
		// generator's validity rules, which this test does not check.
		benchMain([]string{"-seconds", "0.2", "-trace", pass.trace, "-out", dir}, &out)
		var file resultFile
		if err := loadJSON(filepath.Join(dir, pass.file), &file); err != nil {
			t.Fatalf("trace %s: %v\n%s", pass.trace, err, out.String())
		}
		for _, w := range workloads {
			r := file.Workloads[w.name]
			if r == nil {
				t.Errorf("trace %s: no result for %s", pass.trace, w.name)
				continue
			}
			if r.Failed != 0 || r.Checks["failed_frac"] == nil || r.Checks["failed_frac"].Value != 0 {
				t.Errorf("trace %s: %s failed %d of %d: %q", pass.trace, w.name, r.Failed, r.Attempted, r.Errors)
			}
			want := map[string]bool{}
			for _, m := range pass.names {
				want[m.Name] = true
				got := r.Metrics[m.Name]
				if got == nil || got.Unit != m.Unit {
					t.Errorf("trace %s: %s does not report %s in %s (got %+v)", pass.trace, w.name, m.Name, m.Unit, got)
				}
			}
			// The last line carries exactly the metrics BENCHMARK.json names
			// (less a p99 too short a run could not measure).
			for name := range contractLine(r, pass.trace == "1").Metrics {
				if !want[name] {
					t.Errorf("trace %s: %s's last line carries %s, which BENCHMARK.json does not name", pass.trace, w.name, name)
				}
			}
		}
	}
}
