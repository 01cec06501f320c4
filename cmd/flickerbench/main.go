// Command flickerbench is the repository's benchmark. It runs four seeded
// workloads against the Flicker reproduction — two closed-loop classic
// sessions, an open-loop sharded pool and an open-loop attestation fabric —
// each in its own child process, and reports every end-to-end metric as the
// median over repetitions with its quartiles, after checking every reply.
// With -trace 1 it instead reruns each workload with benchmark-side
// instrumentation and reports per-layer metrics plus a span file.
//
//	flickerbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	flickerbench compare [-spec BENCHMARK.json] A.json B.json
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics; the full results go to DIR/result.json
// (DIR/trace.json for -trace 1). The exit status is non-zero when any reply
// or exact check is wrong.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// resultFile is the layout of DIR/result.json and DIR/trace.json.
type resultFile struct {
	GoVersion string             `json:"go_version"`
	NProc     int                `json:"nproc"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("flickerbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the request schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds each workload loads the system for; set-ups, the probe and the peak-RSS child come on top")
	traceN := fs.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result and span files")
	child := fs.String("child", "", "run one workload in this process and print its result: load or rss (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceN != 0 && *traceN != 1) || !(*seconds > 0) || math.IsInf(*seconds, 0) {
		fmt.Fprintln(os.Stderr, "flickerbench: bad arguments; see -h")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceN == 1, out: *out}
	if o.workload != "" && workloadByName(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "flickerbench: unknown workload %q\n", o.workload)
		return 2
	}
	if *child != "" {
		return childMain(o, *child, stdout)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "flickerbench:", err)
		return 1
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	file := resultFile{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Workloads: map[string]*result{}}
	ok := true
	for _, name := range names {
		o.workload = name
		r, _, err := spawn(o, "load")
		if err == nil && !o.trace {
			err = peakRSS(o, r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flickerbench: %s: %v\n", name, err)
			return 1
		}
		file.Workloads[name] = r
		report(stdout, workloadByName(name), r, o)
		ok = ok && r.correct()
	}
	path := filepath.Join(o.out, "result.json")
	if o.trace {
		path = filepath.Join(o.out, "trace.json")
	}
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "flickerbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if len(names) == 1 {
		line, err := json.Marshal(contractLine(file.Workloads[names[0]], o.trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "flickerbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return 1
	}
	return 0
}

// childMain runs one workload in this process and prints its result as one
// JSON line. kind "load" is the measured run; "rss" is the fixed-work run
// whose peak RSS the parent reports.
func childMain(o options, kind string, stdout io.Writer) int {
	w := workloadByName(o.workload)
	if w == nil {
		fmt.Fprintln(os.Stderr, "flickerbench: -child needs -workload")
		return 2
	}
	var r *result
	var err error
	switch {
	case kind == "rss":
		r, err = runRSS(w, o.seed)
	case kind != "load":
		err = fmt.Errorf("unknown -child %q", kind)
	case o.trace:
		r, err = runTraced(w, o.seed, o.seconds, o.out)
	default:
		r, err = runUntraced(w, o.seed, o.seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flickerbench:", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flickerbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// rssChildren is how many fixed-work children set peak_rss_mb, their median.
// From one open-loop child to the next the peak moves by up to a tenth with
// where the collector's cycles fall; the median of five holds it to a few
// percent.
const rssChildren = 5

// peakRSS runs the workload's fixed-work children one after another and sets
// r's peak_rss_mb to the median of their peak RSS, folding their checked
// replies into r.
func peakRSS(o options, r *result) error {
	var peaks []float64
	for i := 0; i < fixedWork(rssChildren); i++ {
		mem, rss, err := spawn(o, "rss")
		if err != nil {
			return err
		}
		peaks = append(peaks, rss)
		r.Attempted += mem.Attempted
		r.Failed += mem.Failed
		r.Errors = append(r.Errors, mem.Errors...)
	}
	r.set("peak_rss_mb", median(peaks), peaks)
	return nil
}

// spawn runs one workload in a child process of this binary, so every
// workload starts from a fresh heap, waits for it, and returns its result
// and peak RSS in MB.
func spawn(o options, kind string) (*result, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", kind, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.out}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	// The child must not outlive the parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, 0, fmt.Errorf("child result: %w", err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		// Linux reports ru_maxrss in KiB.
		rss = float64(ru.Maxrss) / 1024
	}
	return &r, rss, nil
}

// correct reports whether every reply and check was right. A run the
// generator could not keep on schedule is flagged invalid but stays
// correct: that is the host's doing, not the program's.
func (r *result) correct() bool { return r.Failed == 0 }

// contractMetric and contractResult are the last line's layout.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contractLine keeps the metrics every workload reports: all end-to-end
// metrics for the untraced run, the per-layer metrics common to all four
// workloads for the traced one. A p99 measured from too few samples is left
// out rather than guessed.
func contractLine(r *result, trace bool) contractResult {
	c := contractResult{Correct: r.correct(), Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]contractMetric{}}
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		if d.Only != nil {
			continue
		}
		if m, ok := r.Metrics[d.Name]; ok && !m.Insufficient {
			c.Metrics[d.Name] = contractMetric{Value: m.Value, Unit: d.Unit}
		}
	}
	return c
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// report prints one workload's result for people.
func report(out io.Writer, w *workload, r *result, o options) {
	loop := "closed loop, 1 client"
	if w.open {
		loop = fmt.Sprintf("open loop, Poisson at %.0f req/s", w.rate)
	}
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(out, "== %s: %s, seed %d, %s; %s\n", w.name, loop, o.seed, r.Plan, kind)
	defs := append(append([]metricDef(nil), e2eMetrics...), loadMetrics...)
	if r.Trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		switch {
		case m.Insufficient:
			fmt.Fprintf(out, "   %-30s insufficient samples (< %d in a repetition)\n", d.Name, minTailSamples)
		case m.Summary != nil:
			s := m.Summary
			fmt.Fprintf(out, "   %-30s %12.4f %-5s  median of %d; q1 %.4f q3 %.4f mad %.4f\n",
				d.Name, m.Value, d.Unit, s.N, s.Q1, s.Q3, s.MAD)
		default:
			fmt.Fprintf(out, "   %-30s %12.4f %s\n", d.Name, m.Value, d.Unit)
		}
	}
	checks := make([]string, 0, len(r.Checks))
	for name := range r.Checks {
		checks = append(checks, name)
	}
	sort.Strings(checks)
	for _, name := range checks {
		c := r.Checks[name]
		note := ""
		if name == "sim_session_ms" {
			note = fmt.Sprintf(" (must read %v)", w.simSessionMS)
		}
		fmt.Fprintf(out, "   check %-24s %12.4f %s%s\n", name, c.Value, c.Unit, note)
	}
	fmt.Fprintf(out, "   requests: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(out, "   error: %s\n", e)
	}
	if r.Invalid != "" {
		fmt.Fprintf(out, "   INVALID (the generator fell behind; these numbers are not evidence): %s\n", r.Invalid)
	}
	if len(r.Ladder) > 0 {
		var steps []string
		for _, s := range r.Ladder {
			v := "ok"
			if !s.Pass {
				v = "FAIL " + s.Why
			}
			steps = append(steps, fmt.Sprintf("%.0f/s p99 %.0fus %s", s.Rate, s.P99, v))
		}
		fmt.Fprintf(out, "   ladder (p99 limit %v): %s\n", w.limit, strings.Join(steps, " | "))
	}
	if r.Trace {
		whereTimeGoes(out, w, r)
	}
}

// whereTimeGoes prints the traced run's session breakdown: each phase's self
// time, the PAL body, and the unattributed remainder, per session.
func whereTimeGoes(out io.Writer, w *workload, r *result) {
	get := func(n string) float64 {
		if m, ok := r.Metrics[n]; ok {
			return m.Value
		}
		return 0
	}
	rows := append([]string(nil), corePhases...)
	if w.name == wFabric {
		rows = append(rows, "request")
	}
	attributed := get("core.pal_body_us") * get("sched.batch_size_mean")
	for _, ph := range rows {
		attributed += get("core.phase." + ph + "_us")
	}
	total := attributed / (1 - get("core.unattributed_frac"))
	fmt.Fprintf(out, "   where a %s session's wall time goes (us per session, share of %.2f us):\n", w.name, total)
	for _, ph := range rows {
		v := get("core.phase." + ph + "_us")
		fmt.Fprintf(out, "     %-14s %9.3f  %5.1f%%\n", ph, v, 100*v/total)
	}
	body := get("core.pal_body_us") * get("sched.batch_size_mean")
	fmt.Fprintf(out, "     %-14s %9.3f  %5.1f%%\n", "pal body", body, 100*body/total)
	fmt.Fprintf(out, "     %-14s %9.3f  %5.1f%%\n", "unattributed", total-attributed, 100*get("core.unattributed_frac"))
	fmt.Fprintf(out, "     trace overhead: %+.1f%% CPU per request\n", 100*get("trace.overhead_frac"))
}

// findSpec looks for BENCHMARK.json in the working directory and up to two
// levels above it (the repository root, seen from cmd/flickerbench).
func findSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("BENCHMARK.json not found; pass -spec")
}
