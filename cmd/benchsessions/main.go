// benchsessions measures session-hot-path throughput — classic and the
// sharded pool, closed- and open-loop — and writes a machine-readable
// BENCH_sessions.json so CI can track the perf trajectory PR-over-PR.
//
// Unlike the go-test benchmarks (which report to the console), this tool is
// the artifact emitter: fixed iteration counts, wall-clock sessions/s, and
// allocations per session measured from runtime.MemStats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"flicker"
)

// modeResult is one benchmark mode's measurements. For batched modes an
// "op" is one request, not one session (Batch reports how many requests
// shared each session), so sessions_per_sec columns stay comparable as
// requests-served-per-second across singleton and batched trajectories.
type modeResult struct {
	Sessions   int `json:"sessions"`
	Batch      int `json:"batch,omitempty"`
	Hosts      int `json:"hosts,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// DegradedParallelism marks a mode that asked for real parallelism
	// (the _mp and _par passes) on a single-CPU machine: the numbers are
	// valid but say nothing about scaling, and the CI shard-scaling gate
	// must skip rather than silently pass on them.
	DegradedParallelism bool    `json:"degraded_parallelism,omitempty"`
	NsPerOp             float64 `json:"ns_per_op"`
	SessionsPerSec      float64 `json:"sessions_per_sec"`
	AllocsPerOp         float64 `json:"allocs_per_op"`
	BytesPerOp          float64 `json:"bytes_per_op"`
}

// reportFile is the BENCH_sessions.json schema. Every core mode runs
// twice: pinned to one P (legacy mode names — scheduler-neutral numbers
// that stay comparable across CI machines) and at the machine's real
// parallelism ("_mp" suffix). The fabric modes are paced by simulated
// device time rather than CPU, so they run once.
type reportFile struct {
	GeneratedUnix      int64                 `json:"generated_unix"`
	GoVersion          string                `json:"go_version"`
	GOMAXPROCS         int                   `json:"gomaxprocs"`
	NumCPU             int                   `json:"num_cpu"`
	GOMAXPROCSPinned   int                   `json:"gomaxprocs_pinned"`
	GOMAXPROCSParallel int                   `json:"gomaxprocs_parallel"`
	Modes              map[string]modeResult `json:"modes"`
}

func demoPAL(name string) flicker.PAL {
	return &flicker.PALFunc{
		PALName: name,
		Binary:  flicker.DescriptorCode(name, "1.0", nil, nil),
		Fn: func(env *flicker.Env, input []byte) ([]byte, error) {
			return []byte("ok"), nil
		},
	}
}

// measure runs fn n times and returns wall time plus per-op allocation stats.
func measure(n int, fn func() error) (modeResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return modeResult{}, err
		}
	}
	dt := time.Since(start)
	runtime.ReadMemStats(&after)
	return modeResult{
		Sessions:       n,
		NsPerOp:        float64(dt.Nanoseconds()) / float64(n),
		SessionsPerSec: float64(n) / dt.Seconds(),
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// runPlatform benchmarks one session flavour on a fresh platform, warming the
// image and measurement caches first so the steady state is what's measured.
func runPlatform(n int, run func(p *flicker.Platform) error) (modeResult, error) {
	p, err := flicker.NewPlatform(flicker.Config{Seed: "benchsessions", Profile: flicker.ProfileFuture()})
	if err != nil {
		return modeResult{}, err
	}
	if err := run(p); err != nil {
		return modeResult{}, err
	}
	return measure(n, func() error { return run(p) })
}

// runPool benchmarks aggregate pool throughput with 8 concurrent submitters
// spreading 8 PAL names over the shards.
func runPool(n, shards int) (modeResult, error) {
	pool, err := flicker.NewPool(flicker.PoolConfig{
		Shards:   shards,
		QueueLen: 4,
		Platform: flicker.Config{Seed: "benchsessions-pool", Profile: flicker.ProfileFuture()},
	})
	if err != nil {
		return modeResult{}, err
	}
	defer pool.Close()
	pals := make([]flicker.PAL, 8)
	for i := range pals {
		pals[i] = demoPAL(fmt.Sprintf("pal-%c", 'a'+i))
	}
	for _, pl := range pals {
		if _, err := pool.Run(pl, flicker.SessionOptions{}); err != nil {
			return modeResult{}, err
		}
	}
	const submitters = 8
	return measure(1, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, submitters)
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += submitters {
					res, err := pool.Run(pals[i%len(pals)], flicker.SessionOptions{})
					if err != nil {
						errs <- err
						return
					}
					if res.PALError != nil {
						errs <- res.PALError
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
}

// runPoolParallel is the true-parallel pass: open-loop submitters (at
// least 2x the shard count, and at least one per CPU) drive the pool at
// GOMAXPROCS=NumCPU with a queue deep enough that the submit ring, not the
// submitters, sets the pace. pool_shards4_par vs pool_shards1_par is the
// shard-scaling gate: with per-shard platform stacks and the lock-free
// ring, four shards must clear 3x one shard on >= 4 CPUs.
func runPoolParallel(n, shards int) (modeResult, error) {
	pool, err := flicker.NewPool(flicker.PoolConfig{
		Shards:   shards,
		QueueLen: 64,
		Platform: flicker.Config{Seed: "benchsessions-pool", Profile: flicker.ProfileFuture()},
	})
	if err != nil {
		return modeResult{}, err
	}
	defer pool.Close()
	// One PAL per shard slot and then some, so affinity routing spreads
	// the open-loop load over every shard.
	pals := make([]flicker.PAL, 8)
	for i := range pals {
		pals[i] = demoPAL(fmt.Sprintf("pal-%c", 'a'+i))
	}
	for _, pl := range pals {
		if _, err := pool.Run(pl, flicker.SessionOptions{}); err != nil {
			return modeResult{}, err
		}
	}
	submitters := 2 * shards
	if c := runtime.NumCPU(); submitters < c {
		submitters = c
	}
	if submitters < 8 {
		submitters = 8
	}
	r, err := measure(1, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, submitters)
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += submitters {
					res, err := pool.Run(pals[i%len(pals)], flicker.SessionOptions{})
					if err != nil {
						errs <- err
						return
					}
					if res.PALError != nil {
						errs <- res.PALError
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		return modeResult{}, err
	}
	r.Sessions = n
	r.NsPerOp /= float64(n)
	r.SessionsPerSec = float64(n) * r.SessionsPerSec
	r.AllocsPerOp /= float64(n)
	r.BytesPerOp /= float64(n)
	return r, nil
}

// runBatchDirect benchmarks RunSessionBatch on one platform: n requests in
// groups of batch behind single SKINIT/Seal cycles. Per-op numbers are per
// REQUEST so the mode compares directly against classic (batch=1 sessions).
func runBatchDirect(n, batch int) (modeResult, error) {
	p, err := flicker.NewPlatform(flicker.Config{Seed: "benchsessions", Profile: flicker.ProfileFuture()})
	if err != nil {
		return modeResult{}, err
	}
	hello := demoPAL("hello")
	reqs := make([][]byte, batch)
	for i := range reqs {
		reqs[i] = []byte(fmt.Sprintf("req-%d", i))
	}
	run := func() error {
		br, err := p.RunSessionBatch(hello, flicker.Batch{Requests: reqs}, flicker.SessionOptions{})
		if err != nil {
			return err
		}
		if br.Session.PALError != nil {
			return br.Session.PALError
		}
		for i, r := range br.Replies {
			if r.Err != nil {
				return fmt.Errorf("request %d: %w", i, r.Err)
			}
		}
		return nil
	}
	if err := run(); err != nil {
		return modeResult{}, err
	}
	r, err := measure(n/batch, run)
	if err != nil {
		return modeResult{}, err
	}
	// Rescale from per-session to per-request ops.
	r.Sessions = n / batch
	r.Batch = batch
	r.NsPerOp /= float64(batch)
	r.SessionsPerSec *= float64(batch)
	r.AllocsPerOp /= float64(batch)
	r.BytesPerOp /= float64(batch)
	return r, nil
}

// runPoolBatched benchmarks the pool's adaptive coalescer: concurrent
// submitters of the SAME PAL, so the shard queue groups them behind shared
// sessions. Per-op numbers are per request.
func runPoolBatched(n, shards, maxBatch int) (modeResult, error) {
	pool, err := flicker.NewPool(flicker.PoolConfig{
		Shards:   shards,
		QueueLen: 64,
		MaxBatch: maxBatch,
		MaxWait:  2 * time.Millisecond,
		Platform: flicker.Config{Seed: "benchsessions-pool", Profile: flicker.ProfileFuture()},
	})
	if err != nil {
		return modeResult{}, err
	}
	defer pool.Close()
	hello := demoPAL("hello")
	if _, err := pool.Run(hello, flicker.SessionOptions{}); err != nil {
		return modeResult{}, err
	}
	const submitters = 16
	r, err := measure(1, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, submitters)
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += submitters {
					res, err := pool.Run(hello, flicker.SessionOptions{Input: []byte(fmt.Sprintf("req-%d", i))})
					if err != nil {
						errs <- err
						return
					}
					if res.PALError != nil {
						errs <- res.PALError
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		return modeResult{}, err
	}
	r.Sessions = int(pool.Metrics().Snapshot().Sum("flicker_sessions_total", "ok"))
	r.Batch = maxBatch
	r.NsPerOp /= float64(n)
	r.SessionsPerSec = float64(n) * r.SessionsPerSec
	r.AllocsPerOp /= float64(n)
	r.BytesPerOp /= float64(n)
	return r, nil
}

// runTraced benchmarks the classic session loop with the distributed tracer
// attached at the given sample rate: 0 costs one sampler check per session
// (the <5% CI gate), 1.0 pays full span assembly into a flight recorder.
// capture, when non-nil, receives the last fully-assembled trace — the
// TRACE_sample.json artifact CI uploads next to BENCH_sessions.json.
func runTraced(n int, rate float64, capture **flicker.TraceData) (modeResult, error) {
	p, err := flicker.NewPlatform(flicker.Config{Seed: "benchsessions", Profile: flicker.ProfileFuture()})
	if err != nil {
		return modeResult{}, err
	}
	tracer := flicker.NewTracer("benchsessions", p.Clock.Now)
	tracer.SetSampleRate(rate)
	rec := flicker.NewTraceFlightRecorder(8, 8, 0)
	tracer.OnComplete(func(td *flicker.TraceData) {
		rec.Offer(td)
		if capture != nil {
			*capture = td
		}
	})
	hello := demoPAL("hello")
	run := func() error {
		root := tracer.StartSampled("bench.run")
		var o flicker.SessionOptions
		if root != nil {
			root.SetAttr("pal", "hello")
			o.TraceID = root.TraceHex()
			o.Observer = flicker.NewSessionTraceObserver(root)
		}
		res, err := p.RunSession(hello, o)
		if err != nil {
			return err
		}
		root.EndErr(res.PALError)
		return res.PALError
	}
	if err := run(); err != nil {
		return modeResult{}, err
	}
	return measure(n, run)
}

// pacedPAL returns a PAL whose body sleeps for the given wall time,
// emulating a device-paced session (TPM waits, I/O). Sleeps release the P,
// so paced sessions on different hosts overlap regardless of core count —
// which is exactly the workload the fabric's horizontal scaling targets.
func pacedPAL(name string, pace time.Duration) flicker.PAL {
	return &flicker.PALFunc{
		PALName: name,
		Binary:  flicker.DescriptorCode(name, "1.0", nil, nil),
		Fn: func(env *flicker.Env, input []byte) ([]byte, error) {
			time.Sleep(pace)
			return []byte("ok"), nil
		},
	}
}

// runFabric benchmarks end-to-end controller throughput over an in-process
// attestation fabric of `hosts` quote-verified members, 8 paced PALs, 32
// concurrent submitters. Per-op numbers are per session.
func runFabric(n, hosts int) (modeResult, error) {
	sw := flicker.NewNetSwitch(0, 0)
	ca, err := flicker.NewPrivacyCA([]byte("benchsessions-fabric"), 0)
	if err != nil {
		return modeResult{}, err
	}
	ctrl, err := flicker.NewFabricController(sw, ca, flicker.FabricControllerConfig{
		Seed: "benchsessions", HostInFlight: 1,
	})
	if err != nil {
		return modeResult{}, err
	}
	pals := make([]flicker.PAL, 8)
	for i := range pals {
		pals[i] = pacedPAL(fmt.Sprintf("paced-%c", 'a'+i), 500*time.Microsecond)
		if err := ctrl.RegisterPAL(pals[i]); err != nil {
			return modeResult{}, err
		}
	}
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("host%d", i)
		h, err := flicker.NewFabricHost(sw, ca, flicker.FabricHostConfig{
			Name:     name,
			Platform: flicker.Config{Seed: "benchsessions|" + name, Profile: flicker.ProfileFuture()},
		})
		if err != nil {
			return modeResult{}, err
		}
		defer h.Close()
		for _, pl := range pals {
			if err := h.RegisterPAL(pl); err != nil {
				return modeResult{}, err
			}
		}
		if err := ctrl.Admit(name); err != nil {
			return modeResult{}, err
		}
	}
	// Warm every PAL's image cache fleet-wide.
	for _, pl := range pals {
		if _, err := ctrl.Run(pl.Name(), nil); err != nil {
			return modeResult{}, err
		}
	}
	const submitters = 32
	r, err := measure(1, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, submitters)
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += submitters {
					if _, err := ctrl.Run(pals[i%len(pals)].Name(), nil); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		return modeResult{}, err
	}
	r.Sessions = n
	r.Hosts = hosts
	r.NsPerOp /= float64(n)
	r.SessionsPerSec = float64(n) * r.SessionsPerSec
	r.AllocsPerOp /= float64(n)
	r.BytesPerOp /= float64(n)
	return r, nil
}

// pacedBatchPAL is the device-paced workload for the batched-fabric modes:
// the session-entry cost (SKINIT + Unseal stand-in) is paid once per
// session at OpenBatch, and each request behind it is trivial. The
// singleton Run path sleeps the same pace, so a coalescer that falls back
// to singleton frames pays exactly what fabric1's paced sessions pay —
// any speedup the batch modes report is wire + session amortization, not a
// cheaper workload.
type pacedBatchPAL struct {
	name string
	pace time.Duration
	code []byte
}

func newPacedBatchPAL(name string, pace time.Duration) *pacedBatchPAL {
	return &pacedBatchPAL{name: name, pace: pace, code: flicker.DescriptorCode(name, "1.0", nil, nil)}
}

func (p *pacedBatchPAL) Name() string { return p.name }
func (p *pacedBatchPAL) Code() []byte { return p.code }
func (p *pacedBatchPAL) Run(env *flicker.Env, input []byte) ([]byte, error) {
	time.Sleep(p.pace)
	return []byte("ok"), nil
}
func (p *pacedBatchPAL) OpenBatch(env *flicker.Env, header []byte, n int) (any, error) {
	time.Sleep(p.pace)
	return nil, nil
}
func (p *pacedBatchPAL) RunRequest(env *flicker.Env, bctx any, i int, input []byte) ([]byte, error) {
	return []byte("ok"), nil
}
func (p *pacedBatchPAL) CloseBatch(env *flicker.Env, bctx any) ([]byte, error) { return nil, nil }

// runFabricBatched benchmarks the controller's wire-frame coalescer:
// same-PAL runs grouped into runBatch frames, one frame per wire round
// trip, one session (one OpenBatch pace) per frame. Per-op numbers are per
// request, directly comparable against fabric1's per-session numbers.
func runFabricBatched(n, hosts, batch int) (modeResult, error) {
	sw := flicker.NewNetSwitch(0, 0)
	ca, err := flicker.NewPrivacyCA([]byte("benchsessions-fabric"), 0)
	if err != nil {
		return modeResult{}, err
	}
	ctrl, err := flicker.NewFabricController(sw, ca, flicker.FabricControllerConfig{
		Seed:     "benchsessions",
		MaxBatch: batch,
		MaxWait:  2 * time.Millisecond,
		Window:   4,
	})
	if err != nil {
		return modeResult{}, err
	}
	defer ctrl.Close()
	pl := newPacedBatchPAL("paced-batch", 500*time.Microsecond)
	if err := ctrl.RegisterPAL(pl); err != nil {
		return modeResult{}, err
	}
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("host%d", i)
		h, err := flicker.NewFabricHost(sw, ca, flicker.FabricHostConfig{
			Name:     name,
			Platform: flicker.Config{Seed: "benchsessions|" + name, Profile: flicker.ProfileFuture()},
		})
		if err != nil {
			return modeResult{}, err
		}
		defer h.Close()
		if err := h.RegisterPAL(pl); err != nil {
			return modeResult{}, err
		}
		if err := ctrl.Admit(name); err != nil {
			return modeResult{}, err
		}
	}
	if _, err := ctrl.Run(pl.Name(), nil); err != nil {
		return modeResult{}, err
	}
	submitters := 32
	if hosts > 1 {
		submitters = 64
	}
	r, err := measure(1, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, submitters)
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += submitters {
					if _, err := ctrl.Run(pl.Name(), nil); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		return modeResult{}, err
	}
	r.Sessions = n
	r.Hosts = hosts
	r.Batch = batch
	r.NsPerOp /= float64(n)
	r.SessionsPerSec = float64(n) * r.SessionsPerSec
	r.AllocsPerOp /= float64(n)
	r.BytesPerOp /= float64(n)
	return r, nil
}

// runCoreModes runs the single-machine trajectories (classic, pools,
// batching) at the current GOMAXPROCS, tagging each result with the actual
// per-mode GOMAXPROCS and the machine's CPU count. (The old `partitioned`
// mode is retired: RunSessionConcurrent still exists and is tested, but as
// a throughput trajectory it was inconsistent across GOMAXPROCS settings —
// the pool_shards* modes are the scaling story now.)
func runCoreModes(n int, modes map[string]modeResult, suffix string) error {
	hello := demoPAL("hello")
	procs := runtime.GOMAXPROCS(0)
	add := func(name string, r modeResult) {
		r.GOMAXPROCS = procs
		r.NumCPU = runtime.NumCPU()
		// An _mp pass on a 1-CPU machine ran at real parallelism 1: valid
		// numbers, no scaling signal.
		r.DegradedParallelism = suffix != "" && runtime.NumCPU() == 1
		modes[name+suffix] = r
	}

	classic, err := runPlatform(n, func(p *flicker.Platform) error {
		res, err := p.RunSession(hello, flicker.SessionOptions{})
		if err != nil {
			return err
		}
		return res.PALError
	})
	if err != nil {
		return fmt.Errorf("classic: %w", err)
	}
	add("classic", classic)

	for _, shards := range []int{1, 4} {
		r, err := runPool(n, shards)
		if err != nil {
			return fmt.Errorf("pool shards=%d: %w", shards, err)
		}
		// measure ran the whole batch as one op; rescale to per-session.
		r.Sessions = n
		r.NsPerOp /= float64(n)
		r.SessionsPerSec = float64(n) * r.SessionsPerSec
		r.AllocsPerOp /= float64(n)
		r.BytesPerOp /= float64(n)
		add(fmt.Sprintf("pool_shards%d", shards), r)
	}

	// Batched trajectories: requests/s through shared sessions, directly
	// comparable against classic (=batch 1) and pool_shards1 (singleton
	// coalescer-off pool) above.
	for _, batch := range []int{8, 32} {
		r, err := runBatchDirect(n, batch)
		if err != nil {
			return fmt.Errorf("batch_direct%d: %w", batch, err)
		}
		add(fmt.Sprintf("batch_direct%d", batch), r)
	}
	rb, err := runPoolBatched(n, 1, 8)
	if err != nil {
		return fmt.Errorf("pool_batch8: %w", err)
	}
	add("pool_batch8", rb)
	return nil
}

// traceArtifact is the TRACE_sample.json schema: the same TraceData +
// reassembled tree shape `flicker serve` returns from /traces/{id}.
type traceArtifact struct {
	*flicker.TraceData
	Tree *flicker.TraceNode `json:"tree"`
}

func main() {
	out := flag.String("o", "BENCH_sessions.json", "output path")
	n := flag.Int("n", 2000, "sessions per mode")
	traceOut := flag.String("trace-out", "", "also write one fully-assembled sample trace as JSON to this path")
	flag.Parse()

	parallel := runtime.NumCPU()
	report := reportFile{
		GeneratedUnix:      time.Now().Unix(),
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         parallel,
		NumCPU:             parallel,
		GOMAXPROCSPinned:   1,
		GOMAXPROCSParallel: parallel,
		Modes:              map[string]modeResult{},
	}

	// Pass 1 — pinned: legacy mode names, scheduler-neutral.
	prev := runtime.GOMAXPROCS(1)
	if err := runCoreModes(*n, report.Modes, ""); err != nil {
		log.Fatal(err)
	}
	// Pass 2 — real parallelism: same modes, "_mp" suffix.
	runtime.GOMAXPROCS(parallel)
	if err := runCoreModes(*n, report.Modes, "_mp"); err != nil {
		log.Fatal(err)
	}
	// Pass 3 — true shard-parallel: open-loop submitters >= shards at
	// GOMAXPROCS=NumCPU. The pool_shards4_par/pool_shards1_par ratio is
	// the shard-scaling gate (>= 3x with >= 4 CPUs; skipped loudly below
	// when the machine cannot express the parallelism).
	for _, shards := range []int{1, 4} {
		r, err := runPoolParallel(*n, shards)
		if err != nil {
			log.Fatalf("pool_shards%d_par: %v", shards, err)
		}
		r.GOMAXPROCS = parallel
		r.NumCPU = parallel
		r.DegradedParallelism = parallel == 1
		report.Modes[fmt.Sprintf("pool_shards%d_par", shards)] = r
	}
	runtime.GOMAXPROCS(prev)
	if parallel >= 4 {
		fmt.Printf("pool scaling: %0.2fx (pool_shards4_par %0.0f/s over pool_shards1_par %0.0f/s)\n",
			report.Modes["pool_shards4_par"].SessionsPerSec/report.Modes["pool_shards1_par"].SessionsPerSec,
			report.Modes["pool_shards4_par"].SessionsPerSec, report.Modes["pool_shards1_par"].SessionsPerSec)
	} else {
		fmt.Printf("pool scaling: SKIPPED (num_cpu=%d < 4; shard-scaling gate not evaluated)\n", parallel)
	}

	// Fabric trajectories: device-paced sessions scheduled across a
	// quote-verified cluster. fabric4 vs fabric1 is the horizontal-scaling
	// gate (target: >= 3x).
	for _, hosts := range []int{1, 4} {
		r, err := runFabric(*n, hosts)
		if err != nil {
			log.Fatalf("fabric%d: %v", hosts, err)
		}
		r.GOMAXPROCS = parallel
		report.Modes[fmt.Sprintf("fabric%d", hosts)] = r
	}
	fmt.Printf("fabric scaling: %0.2fx (fabric4 %0.0f/s over fabric1 %0.0f/s)\n",
		report.Modes["fabric4"].SessionsPerSec/report.Modes["fabric1"].SessionsPerSec,
		report.Modes["fabric4"].SessionsPerSec, report.Modes["fabric1"].SessionsPerSec)

	// Batched fabric trajectories: same-PAL runs coalesced into runBatch
	// wire frames. fabric_batch8 vs fabric1 is the wire-amortization gate
	// (target: >= 5x requests/s from one frame -> one session per group).
	for _, bm := range []struct {
		name  string
		hosts int
		batch int
	}{
		{"fabric_batch8", 1, 8},
		{"fabric_batch32", 1, 32},
		{"fabric4_batch8", 4, 8},
	} {
		r, err := runFabricBatched(*n, bm.hosts, bm.batch)
		if err != nil {
			log.Fatalf("%s: %v", bm.name, err)
		}
		r.GOMAXPROCS = parallel
		report.Modes[bm.name] = r
	}
	fmt.Printf("fabric batch scaling: %0.2fx (fabric_batch8 %0.0f/s over fabric1 %0.0f/s)\n",
		report.Modes["fabric_batch8"].SessionsPerSec/report.Modes["fabric1"].SessionsPerSec,
		report.Modes["fabric_batch8"].SessionsPerSec, report.Modes["fabric1"].SessionsPerSec)

	// Tracing trajectories: the classic loop with the distributed tracer at
	// three sample rates. The off/baseline ratio is the CI gate — sampling
	// off must cost < 5% — so both sides are re-measured back to back,
	// best-of-3 rounds, to keep scheduler noise out of the comparison.
	var sample *flicker.TraceData
	procs := runtime.GOMAXPROCS(0)
	baseline := modeResult{NsPerOp: math.MaxFloat64}
	traceOff := modeResult{NsPerOp: math.MaxFloat64}
	hello := demoPAL("hello")
	for round := 0; round < 3; round++ {
		rb, err := runPlatform(*n, func(p *flicker.Platform) error {
			res, err := p.RunSession(hello, flicker.SessionOptions{})
			if err != nil {
				return err
			}
			return res.PALError
		})
		if err != nil {
			log.Fatalf("trace baseline: %v", err)
		}
		if rb.NsPerOp < baseline.NsPerOp {
			baseline = rb
		}
		ro, err := runTraced(*n, 0, nil)
		if err != nil {
			log.Fatalf("classic_trace_off: %v", err)
		}
		if ro.NsPerOp < traceOff.NsPerOp {
			traceOff = ro
		}
	}
	traceOff.GOMAXPROCS = procs
	report.Modes["classic_trace_off"] = traceOff
	for _, tm := range []struct {
		name string
		rate float64
		cap  **flicker.TraceData
	}{{"classic_trace_1pct", 0.01, nil}, {"classic_trace_all", 1, &sample}} {
		r, err := runTraced(*n, tm.rate, tm.cap)
		if err != nil {
			log.Fatalf("%s: %v", tm.name, err)
		}
		r.GOMAXPROCS = procs
		report.Modes[tm.name] = r
	}
	fmt.Printf("trace overhead: %0.2f%% sampling-off (%0.0f ns/op traced-off vs %0.0f ns/op baseline)\n",
		(traceOff.NsPerOp-baseline.NsPerOp)/baseline.NsPerOp*100,
		traceOff.NsPerOp, baseline.NsPerOp)

	if *traceOut != "" {
		if sample == nil {
			log.Fatal("classic_trace_all retained no trace to write")
		}
		raw, err := json.MarshalIndent(traceArtifact{TraceData: sample, Tree: sample.Tree()}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*traceOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote sample trace %s (%d spans) to %s\n", sample.ID, len(sample.Spans), *traceOut)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	for name, m := range report.Modes {
		fmt.Printf("%-14s %10.0f sessions/s  %7.1f allocs/op  %9.0f B/op\n",
			name, m.SessionsPerSec, m.AllocsPerOp, m.BytesPerOp)
	}
	fmt.Printf("wrote %s\n", *out)
}
