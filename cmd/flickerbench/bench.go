package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"flicker"
)

// metricValue is one reported metric: the value (the median over
// repetitions for a repeated metric), its unit, and the per-repetition
// samples with their summary.
type metricValue struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
	Summary *summary  `json:"summary,omitempty"`
	// Insufficient marks a p99 some repetition measured from fewer than
	// minTailSamples samples: no value is reported for it.
	Insufficient bool `json:"insufficient,omitempty"`
}

// result is one workload's outcome, as the child process reports it.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Invalid, when set, says why the load generator could not hold the
	// schedule; the run's numbers are not evidence, but its replies were
	// still all checked.
	Invalid string                  `json:"invalid,omitempty"`
	Metrics map[string]*metricValue `json:"metrics"`
	// Checks are the values that must match exactly (sim_session_ms,
	// failed_frac) and the generator's validity readings.
	Checks map[string]*metricValue `json:"checks"`
	Ladder []ladderStep            `json:"ladder,omitempty"`
	// Plan records the run's shape, for the report.
	Plan string `json:"plan"`
}

func (r *result) set(name string, v float64, samples []float64) {
	d, _ := defByName(name)
	mv := &metricValue{Unit: d.Unit, Value: v, Samples: samples}
	if len(samples) > 1 {
		s := summarize(samples)
		mv.Summary = &s
	}
	if r.Metrics == nil {
		r.Metrics = map[string]*metricValue{}
	}
	r.Metrics[name] = mv
}

func (r *result) check(name string, v float64) {
	d, _ := defByName(name)
	if r.Checks == nil {
		r.Checks = map[string]*metricValue{}
	}
	r.Checks[name] = &metricValue{Unit: d.Unit, Value: v}
}

func (r *result) absorb(l loadResult) {
	r.Attempted += l.Attempted
	r.Failed += l.Failed
	for _, e := range l.Errs {
		if len(r.Errors) < maxErrs {
			r.Errors = append(r.Errors, e)
		}
	}
}

// The rate ladder is the grid fixed rate x 1.05^k for k < 40 (up to 6.7x the
// fixed rate: the batching fabric sustains more than 5x its fixed rate). The
// traced run looks for the highest passing rate by bisection, assuming a
// rate passes whenever a higher one does: at most ladderProbes probes
// instead of a climb through every rate, which would not fit a bounded run.
const (
	ladderGrowth = 1.05
	ladderRates  = 40
	ladderProbes = 6
)

// defaultSeconds is how long a workload loads the system when -seconds is
// not given.
const defaultSeconds = 16

// repDuration splits seconds of measurement over a workload's repetitions.
func repDuration(w *workload, seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second) / float64(w.reps))
}

// smoke cuts the fixed work done outside the measured time (set-ups, probe
// sessions, the peak-RSS child's requests) a hundredfold, keeping at least
// one of each, so the smoke test stays short. Only tests set it.
var smoke bool

func fixedWork(n int) int {
	if smoke {
		return max(1, n/100)
	}
	return n
}

// drive runs the workload's loop on sys for d starting at request first.
func drive(w *workload, sys *system, s *schedule, first uint64, rate float64, d time.Duration) (loadResult, uint64) {
	if w.open {
		return runOpen(sys, s, first, rate, d)
	}
	return runClosed(sys, s, first, d, 0)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupsPerRun is how many fresh set-ups an untraced run times. They come
// in one group before each repetition, whose last set-up serves the
// repetition, and setup_s is the median over groups of each group's fastest
// set-up. A set-up is CPU-bound (three quarters of a platform's is the
// kernel boot's SHA-1 PRNG), and on a 2-vCPU shared VM consecutive classic
// set-ups took anywhere from 29 to 53 ms. Neighbours only ever add time, so
// the fastest of a group is the set-up's own cost: over twelve sets of 30
// classic set-ups, the median of a set ranged over 34% and its fastest over
// 8%. Spreading the groups over the run samples more of the host's moments.
const setupsPerRun = 32

// loadSamples collects the load metrics over repetitions or passes.
type loadSamples struct {
	tput, p50, p99 []float64
	insufficient   bool
}

func (ls *loadSamples) add(w *workload, l loadResult) {
	lat := l.latencies(w.rate)
	ls.p50 = append(ls.p50, us(lat.P50))
	if lat.P99OK {
		ls.p99 = append(ls.p99, us(lat.P99))
	} else {
		ls.insufficient = true
	}
	done := l.Attempted
	if w.open {
		done = l.Completed
	}
	ls.tput = append(ls.tput, float64(done)/l.Wall.Seconds())
}

// report sets the load metrics to their medians; a p99 some repetition
// measured from too few samples is marked insufficient.
func (ls *loadSamples) report(r *result) {
	r.set("throughput_rps", median(ls.tput), ls.tput)
	r.set("latency_p50_us", median(ls.p50), ls.p50)
	if ls.insufficient {
		r.Metrics["latency_p99_us"] = &metricValue{Unit: "us", Insufficient: true}
	} else {
		r.set("latency_p99_us", median(ls.p99), ls.p99)
	}
}

// runUntraced measures the end-to-end metrics: each repetition times a group
// of fresh set-ups, then loads the last one for rep; the last repetition's
// system then answers the PCR-17 probe (singleton workloads). Every set-up and
// repetition starts right after a collection, from a heap holding only what
// is live.
func runUntraced(w *workload, seed int64, seconds float64) (*result, error) {
	rep := repDuration(w, seconds)
	r := &result{Workload: w.name, Plan: fmt.Sprintf("%d reps of %v", w.reps, rep)}
	s := newSchedule(seed, w.gen)
	var setup, allocs, late, achieved []float64
	var load loadSamples
	next := uint64(0)
	setUp := func() (*system, time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		sys, err := w.setup(nil)
		took := time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		return sys, took, nil
	}
	group := fixedWork((setupsPerRun + w.reps - 1) / w.reps)
	for k := 0; k < w.reps; k++ {
		var sys *system
		fastest := math.Inf(1)
		for j := 0; j < group; j++ {
			if sys != nil {
				sys.close()
			}
			var took time.Duration
			var err error
			if sys, took, err = setUp(); err != nil {
				return nil, err
			}
			fastest = math.Min(fastest, took.Seconds())
		}
		setup = append(setup, fastest)
		// Any failover resubmission is a failure for this benchmark.
		resub0 := readCounters(sys.regs).resubmits
		runtime.GC()
		var l loadResult
		l, next = drive(w, sys, s, next, w.rate, rep)
		r.absorb(l)
		load.add(w, l)
		allocs = append(allocs, float64(l.Allocs)/float64(max(l.Attempted, 1)))
		if w.open {
			late = append(late, us(nearestRank(sortDurations(l.Late), 99)))
			achieved = append(achieved, float64(l.Completed)/float64(max(l.Offered, 1)))
		}
		if k == w.reps-1 && sys.session != nil {
			probe(w, sys, s, fixedWork(probeSessions), r)
		}
		if n := readCounters(sys.regs).resubmits - resub0; n > 0 {
			r.Failed += int(n)
			r.Errors = append(r.Errors, fmt.Sprintf("%.0f fabric resubmissions", n))
		}
		sys.close()
	}
	r.set("setup_s", median(setup), setup)
	load.report(r)
	r.set("allocs_per_req", median(allocs), allocs)
	if w.open {
		r.check("gen.late_p99_us", median(late))
		r.check("gen.achieved_frac", median(achieved))
		switch {
		case median(late) > 2000:
			r.Invalid = fmt.Sprintf("generator p99 lateness %.0f us > 2000 us", median(late))
		case median(achieved) < 0.99:
			r.Invalid = fmt.Sprintf("achieved %.3f of offered < 0.99", median(achieved))
		}
	}
	r.check("failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)))
	return r, nil
}

// climb bisects the rate ladder on sys for the highest rate whose probe
// passes the step rule, recording every probe in r.Ladder (in probe order).
// It returns the next unused request index.
func climb(w *workload, sys *system, s *schedule, next uint64, step time.Duration, r *result) uint64 {
	lo, hi := -1, ladderRates // rate index lo passes (or is below the grid), hi fails
	for hi-lo > 1 {
		k := (lo + hi) / 2
		rate := w.rate * math.Pow(ladderGrowth, float64(k))
		runtime.GC()
		var l loadResult
		l, next = runOpen(sys, s, next, rate, step)
		r.absorb(l)
		p99, ok := windowP99(l.Due, l.Lat, rate)
		st := ladderStep{
			Rate:       rate,
			Offered:    float64(l.Offered) / l.Wall.Seconds(),
			Achieved:   float64(l.Completed) / l.Wall.Seconds(),
			P99:        us(p99),
			P99OK:      ok,
			RawP99:     us(nearestRank(sortDurations(l.Lat), 99)),
			BacklogMid: l.BacklogMid,
			BacklogEnd: l.BacklogEnd,
			Failed:     l.Failed,
		}
		st.judge(w.limit)
		r.Ladder = append(r.Ladder, st)
		if st.Pass {
			lo = k
		} else {
			hi = k
		}
	}
	return next
}

// probeSessions is how many of the schedule's first sessions the probe
// replays.
const probeSessions = 1000

// probe replays the schedule's first n requests as singleton sessions,
// checks every reply, recomputes each session's final PCR-17 from its
// image, input and output, and checks the mean simulated session time.
func probe(w *workload, sys *system, s *schedule, n int, r *result) {
	buf := make([]byte, 0, 4096)
	var sim time.Duration
	for i := 0; i < n; i++ {
		pal, in := s.request(uint64(i), buf)
		res, err := sys.session(pal, in)
		r.Attempted++
		if err := checkReply(res, err, sys.want(pal, in)); err != nil {
			r.Failed++
			if len(r.Errors) < maxErrs {
				r.Errors = append(r.Errors, "probe: "+err.Error())
			}
			continue
		}
		if want := flicker.ExpectedFinalPCR17(res.Image, in, res.Outputs, nil); want != res.PCR17Final {
			r.Failed++
			if len(r.Errors) < maxErrs {
				r.Errors = append(r.Errors, fmt.Sprintf("probe: request %d: PCR-17 %x, recomputed %x", i, res.PCR17Final, want))
			}
		}
		sim += res.Duration()
	}
	got := float64(sim) / float64(n) / float64(time.Millisecond)
	r.check("sim_session_ms", got)
	if math.Abs(got-w.simSessionMS) > 1e-9 {
		r.Failed++
		r.Errors = append(r.Errors, fmt.Sprintf("sim_session_ms %v, want %v", got, w.simSessionMS))
	}
}

// runRSS sets up one system and serves the schedule's first w.rssRequests
// requests, closed-loop or at the fixed rate. The parent reads this child's
// peak RSS: a fixed amount of work, because the simulated clock keeps every
// charge it records (about 0.7 KB per session), so memory grows with the
// sessions a platform has run.
func runRSS(w *workload, seed int64) (*result, error) {
	n := fixedWork(w.rssRequests)
	r := &result{Workload: w.name, Plan: fmt.Sprintf("%d requests", n)}
	s := newSchedule(seed, w.gen)
	sys, err := w.setup(nil)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer sys.close()
	var l loadResult
	if w.open {
		l, _ = runOpen(sys, s, 0, w.rate, time.Duration(float64(n)/w.rate*float64(time.Second)))
	} else {
		l, _ = runClosed(sys, s, 0, time.Hour, n)
	}
	r.absorb(l)
	return r, nil
}

// traceRounds is how many untraced/traced pass pairs the traced run
// alternates, so that drift in the host's speed falls on both sides of the
// tracing-overhead comparison alike.
const traceRounds = 4

// runTraced measures the per-layer metrics: one set-up, then traceRounds
// rounds of an untraced pass and a traced pass of equal length, the rate
// ladder (open loop), and the layer microbenchmarks. It writes the traced
// passes' spans under out. An open loop gives half of seconds to the
// ladder's 2 s probes (shorter when seconds is under 24), a fifth each to
// the untraced and traced passes and the rest to the microbenchmarks; a
// closed loop gives two fifths to each kind of pass.
func runTraced(w *workload, seed int64, seconds float64, out string) (*result, error) {
	total := time.Duration(seconds * float64(time.Second))
	pass, step := total*2/5, time.Duration(0)
	if w.open {
		pass, step = total/5, min(2*time.Second, total/(2*ladderProbes))
	}
	micro := (total - 2*pass - ladderProbes*step) / 12
	r := &result{Workload: w.name, Trace: true,
		Plan: fmt.Sprintf("%d x (untraced %v, traced %v), microbenchmarks %v each", traceRounds, pass/traceRounds, pass/traceRounds, micro)}
	if w.open {
		r.Plan += fmt.Sprintf(", up to %d ladder probes of %v", ladderProbes, step)
	}
	s := newSchedule(seed, w.gen)
	tr := newTracer()
	sys, err := w.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer sys.close()
	var ref, trc loadResult
	var refBytes float64
	next := uint64(0)
	runtime.GC()
	c0, go0 := readCounters(sys.regs), readGo()
	for round := 0; round < traceRounds; round++ {
		b0 := readGo().allocBytes
		var l loadResult
		l, next = drive(w, sys, s, next, w.rate, pass/traceRounds)
		refBytes += readGo().allocBytes - b0
		ref.add(l)
		if round == 0 {
			tr.enable(next)
		} else {
			tr.on.Store(true)
		}
		l, next = drive(w, sys, s, next, w.rate, pass/traceRounds)
		tr.on.Store(false)
		trc.add(l)
	}
	counters, goAll := readCounters(sys.regs).minus(c0), readGo().minus(go0)
	r.absorb(ref)
	r.absorb(trc)
	// The load metrics are read off the untraced passes taken together: one
	// pass of classic_seal holds about a thousand requests, too few for a
	// p99 on its own.
	var load loadSamples
	load.add(w, ref)
	load.report(r)

	if w.open {
		climb(w, sys, s, next, step, r)
		r.set("max_rate_rps", maxPassingRate(r.Ladder), nil)
	} else {
		// One client that sends as soon as it is answered runs at the
		// highest rate this workload sustains.
		r.set("max_rate_rps", float64(ref.Attempted)/ref.Wall.Seconds(), nil)
	}
	layers, err := microbench(micro)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		r.set(name, v, nil)
	}
	tracedLayers(w, sys, tr, ref, trc, counters, goAll, refBytes, r)
	if counters.resubmits > 0 {
		r.Failed += int(counters.resubmits)
		r.Errors = append(r.Errors, fmt.Sprintf("%.0f fabric resubmissions", counters.resubmits))
	}
	r.check("failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)))
	if err := tr.writeSpans(filepath.Join(out, w.name+".spans.json"), w.name); err != nil {
		return nil, err
	}
	return r, nil
}

// tracedLayers derives the per-layer metrics. Wall times come from the
// traced passes; the program's own counters, which tracing does not change,
// and the GC's CPU share from all passes (c, g); bytes allocated per
// request from the untraced passes (refBytes). The runtime updates its CPU
// classes only when a collection ends, so the GC share needs the whole run.
func tracedLayers(w *workload, sys *system, tr *tracer, ref, trc loadResult, c layerCounters, g goSample, refBytes float64, r *result) {
	per := func(a float64, b int) float64 { return a / float64(max(b, 1)) }
	reqs := ref.Attempted + trc.Attempted

	var sessions, members, bodies int
	var sessionWall, memberWall, bodyWall int64
	self := map[string]int64{}
	count := map[string]int{}
	minS, maxS := math.MaxInt, 0
	for _, o := range tr.observers {
		sessions += o.sessions
		members += o.memberN
		sessionWall += o.sessionWall
		memberWall += o.memberWall
		bodyWall += o.bodyWall
		bodies += o.bodies
		for k, v := range o.self {
			self[k] += v
		}
		for k, v := range o.count {
			count[k] += v
		}
		minS, maxS = min(minS, o.sessions), max(maxS, o.sessions)
	}
	r.set("core.session_us", per(float64(sessionWall), sessions)/1e3, nil)
	phaseNames := append([]string(nil), corePhases...)
	if w.name == wFabric {
		phaseNames = append(phaseNames, "request")
	}
	attributed := bodyWall
	for _, ph := range phaseNames {
		r.set("core.phase."+ph+"_us", per(float64(self[ph]), count[ph])/1e3, nil)
	}
	for _, v := range self {
		attributed += v
	}
	r.set("core.pal_body_us", per(float64(bodyWall), bodies)/1e3, nil)
	// The classic workloads call RunSession directly, so the remainder is
	// measured against that call; behind a pool or fabric the session's
	// own span is the closest enclosing interval.
	denom := float64(sessionWall)
	if !w.open {
		denom = float64(tr.reqWall.Load())
	}
	r.set("core.unattributed_frac", 1-float64(attributed)/denom, nil)

	r.set("tpm.cmds_per_session", c.tpmCmds/math.Max(c.sessions, 1), nil)
	r.set("cpu.skinit_hit_frac", c.skinitHits/math.Max(c.skinits, 1), nil)
	r.set("cpu.skinit_per_req", per(c.skinits, reqs), nil)
	r.set("sched.batch_size_mean", per(float64(members), sessions), nil)
	r.set("go.gc_cpu_frac", g.gcCPU/math.Max(g.totalCPU, 1e-9), nil)
	r.set("go.bytes_per_req", per(refBytes, ref.Attempted), nil)
	cpuRef := float64(ref.CPU) / float64(max(ref.Attempted, 1))
	cpuTrc := float64(trc.CPU) / float64(max(trc.Attempted, 1))
	r.set("trace.overhead_frac", cpuTrc/cpuRef-1, nil)

	if w.open {
		r.set("pool.queue_delay_p99_us", c.queueDelay.quantileBound(0.99)*1e6, nil)
		r.set("pool.shard_busy_frac", float64(sessionWall)/float64(len(tr.observers))/float64(trc.Wall), nil)
		r.set("pool.shard_skew", float64(maxS)/math.Max(float64(minS), 1), nil)
		r.set("gen.late_p99_us", us(nearestRank(sortDurations(trc.Late), 99)), nil)
		r.set("gen.achieved_frac", float64(trc.Completed)/float64(max(trc.Offered, 1)), nil)
	}
	if w.name == wPool {
		r.set("pool.overhead_us", (per(float64(tr.reqWall.Load()), int(tr.reqN.Load()))-per(float64(sessionWall), sessions))/1e3, nil)
	}
	if w.name == wFabric {
		r.set("sched.flush_timeout_frac", c.timeoutFlushes/math.Max(c.flushes, 1), nil)
		r.set("fabric.overhead_us", per(float64(tr.reqWall.Load()-memberWall), int(tr.reqN.Load()))/1e3, nil)
		r.set("fabric.frames_per_req", per(c.roundTrips, reqs), nil)
		r.set("fabric.window_waits_per_kreq", 1000*per(c.windowWaits, reqs), nil)
		r.set("fabric.resubmits", c.resubmits, nil)
		r.set("netsim.bytes_per_req", per(c.netBytes, reqs), nil)
		var admit float64
		for _, a := range sys.admitMS {
			admit += a
		}
		r.set("attest.admit_ms", admit/float64(max(len(sys.admitMS), 1)), nil)
	}
}
