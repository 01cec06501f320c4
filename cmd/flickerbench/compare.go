package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparator applies.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

func loadJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain compares two result files metric by metric under the bounds
// in BENCHMARK.json, one row per workload. It exits 1 when any metric is
// worse.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("flickerbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json (default: found from the working directory upward)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: flickerbench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	if *specPath == "" {
		p, err := findSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "flickerbench compare:", err)
			return 2
		}
		*specPath = p
	}
	var spec benchSpec
	var a, b resultFile
	for _, l := range []struct {
		path string
		v    any
	}{{*specPath, &spec}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := loadJSON(l.path, l.v); err != nil {
			fmt.Fprintln(os.Stderr, "flickerbench compare:", err)
			return 2
		}
	}
	worse := compare(out, spec, &a, &b)
	if worse {
		return 1
	}
	return 0
}

// compare prints the comparison table and reports whether any metric got
// worse.
func compare(out io.Writer, spec benchSpec, a, b *resultFile) bool {
	if a.NProc != b.NProc || a.GoVersion != b.GoVersion {
		fmt.Fprintf(out, "WARNING: machines differ: A has nproc %d and %s, B has nproc %d and %s\n",
			a.NProc, a.GoVersion, b.NProc, b.GoVersion)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(out, "note: A ran seed %d for %gs, B seed %d for %gs\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	header := []string{fmt.Sprintf("%-14s", "workload")}
	for _, m := range spec.EndToEnd {
		header = append(header, fmt.Sprintf("%-26s", fmt.Sprintf("%s (%.0f%%)", m.Name, 100*m.Bound)))
	}
	fmt.Fprintln(out, strings.TrimRight(strings.Join(header, " "), " "))
	anyWorse := false
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		row := []string{fmt.Sprintf("%-14s", w.name)}
		for _, m := range spec.EndToEnd {
			v, delta := verdict(ra.Metrics[m.Name], rb.Metrics[m.Name], m.Bound, m.Better)
			anyWorse = anyWorse || v == "worse"
			cell := v
			if !math.IsNaN(delta) {
				cell = fmt.Sprintf("%s %+.1f%%", v, 100*delta)
			}
			row = append(row, fmt.Sprintf("%-26s", cell))
		}
		fmt.Fprintln(out, strings.TrimRight(strings.Join(row, " "), " "))
	}
	return anyWorse
}

func samplesOf(m *metricValue) []float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []float64{m.Value}
}

// verdict classifies B against A for one metric. delta is B's change
// relative to A's median, signed so that positive is better. A change
// beyond the bound is better or worse, anything else is within — unless
// either side's quartile spread exceeds the bound, which leaves the metric
// unresolved, except when every B sample beats every A sample.
func verdict(a, b *metricValue, bound float64, better string) (string, float64) {
	if a == nil || b == nil || a.Insufficient || b.Insufficient {
		return "missing", math.NaN()
	}
	sa, sb := samplesOf(a), samplesOf(b)
	ma, mb := median(sa), median(sb)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	delta := math.NaN()
	if ma != 0 {
		delta = sign * (mb - ma) / math.Abs(ma)
	}
	beats := func(x, y float64) bool { return sign*(x-y) > 0 }
	allBetter := true
	for _, x := range sb {
		for _, y := range sa {
			allBetter = allBetter && beats(x, y)
		}
	}
	if summarize(sa).spread() > bound || summarize(sb).spread() > bound {
		if allBetter {
			return "better", delta
		}
		return "unresolved", delta
	}
	switch {
	case math.IsNaN(delta):
		return "within", delta
	case delta < -bound:
		return "worse", delta
	case delta > bound:
		return "better", delta
	}
	return "within", delta
}
