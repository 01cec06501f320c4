package flicker

// Benchmark suite: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 7). Each benchmark runs the corresponding
// experiment from internal/bench against the platform simulation and
// reports the headline measurement as a custom metric in the paper's units
// (simulated milliseconds / seconds / fractions), alongside the usual
// real-time ns/op of the simulation itself.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or, for the full side-by-side tables, run:
//
//	go run ./cmd/benchtables

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"flicker/internal/bench"
)

// report attaches each row of a reproduced table as a custom metric.
func report(b *testing.B, t *bench.Table) {
	b.Helper()
	for _, r := range t.Rows {
		name := sanitizeMetric(r.Label) + "_" + sanitizeMetric(firstWord(r.Unit))
		b.ReportMetric(r.Measured, name)
	}
	if e := t.MaxRelError(); e > 0 {
		b.ReportMetric(e*100, "max_rel_err_%")
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '-', r == ':', r == '@':
			out = append(out, '_')
		}
	}
	return string(out)
}

func firstWord(s string) string {
	for i, r := range s {
		if r == ' ' {
			return s[:i]
		}
	}
	return s
}

// BenchmarkTable1RootkitBreakdown regenerates Table 1: the rootkit
// detector's per-operation overhead and the 1.02 s end-to-end query.
func BenchmarkTable1RootkitBreakdown(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Table1RootkitBreakdown()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkTable2SkinitVsSLBSize regenerates Table 2: SKINIT latency as a
// function of SLB size (0/4/16/32/64 KB).
func BenchmarkTable2SkinitVsSLBSize(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Table2SkinitVsSize()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkTable3SystemImpact regenerates Table 3: the 7:22.6 kernel build
// under periodic rootkit detection (full scale; the clock is simulated).
func BenchmarkTable3SystemImpact(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Table3SystemImpact(1.0)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkTable4DistcompOverhead regenerates Table 4: per-session overhead
// of the distributed-computing client at 1/2/4/8 s of application work.
func BenchmarkTable4DistcompOverhead(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Table4DistcompOverhead()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkFig8EfficiencyCurve regenerates Figure 8: Flicker efficiency vs
// user latency against 3/5/7-way replication.
func BenchmarkFig8EfficiencyCurve(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure8Efficiency()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkFig9aSSHSetupPAL regenerates Figure 9a: the SSH setup PAL
// breakdown (SKINIT, keygen, seal).
func BenchmarkFig9aSSHSetupPAL(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t1, _, err := bench.Figure9SSH()
		if err != nil {
			b.Fatal(err)
		}
		last = t1
	}
	report(b, last)
}

// BenchmarkFig9bSSHLoginPAL regenerates Figure 9b: the SSH login PAL
// breakdown (SKINIT, unseal, decrypt).
func BenchmarkFig9bSSHLoginPAL(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		_, t2, err := bench.Figure9SSH()
		if err != nil {
			b.Fatal(err)
		}
		last = t2
	}
	report(b, last)
}

// BenchmarkCASign regenerates Section 7.4.2: the CA's 906.2 ms certificate
// signing session.
func BenchmarkCASign(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.CASignLatency()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkRootkitEndToEnd isolates the Section 7.2 end-to-end number: one
// remote detection query (≈1.02 s simulated).
func BenchmarkRootkitEndToEnd(b *testing.B) {
	BenchmarkTable1RootkitBreakdown(b)
}

// BenchmarkSkinitOptimized measures the Section 7.2 optimization: the
// 4736-byte hash-and-extend stub cuts SKINIT from ~176 ms to ~14 ms.
func BenchmarkSkinitOptimized(b *testing.B) {
	prof := ProfileBroadcom()
	var full, stub float64
	for i := 0; i < b.N; i++ {
		full = float64(prof.SkinitCost(64*1024-4)) / 1e6
		stub = float64(prof.SkinitCost(4736)) / 1e6
	}
	b.ReportMetric(full, "skinit_64KB_ms")
	b.ReportMetric(stub, "skinit_stub_ms")
	b.ReportMetric(full-stub, "savings_ms")
}

// BenchmarkSec75BlockDevice regenerates the Section 7.5 experiment: file
// copies interleaved with repeated 8.3 s sessions, zero I/O errors.
func BenchmarkSec75BlockDevice(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Sec75BlockDeviceIntegrity(4<<20, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkAblationTPMProfiles compares Broadcom / Infineon / future-
// hardware profiles across the session-critical operations.
func BenchmarkAblationTPMProfiles(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationTPMProfiles()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkAblationNextGen quantifies the [19] recommendations: hardware-
// protected PAL context vs TPM sealed storage across hardware generations.
func BenchmarkAblationNextGen(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationNextGenSession()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkAblationMulticore compares classic (OS-suspending) sessions with
// partitioned launches that keep the OS running on the other cores.
func BenchmarkAblationMulticore(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationMulticoreImpact()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	report(b, last)
}

// BenchmarkSessionRoundTrip measures the real-time cost of one simulated
// hello-world Flicker session (the simulator's own speed, not the paper's).
func BenchmarkSessionRoundTrip(b *testing.B) {
	p, err := NewPlatform(Config{Seed: "bench-rt"})
	if err != nil {
		b.Fatal(err)
	}
	hello := &PALFunc{
		PALName: "hello",
		Binary:  DescriptorCode("hello", "1.0", nil, nil),
		Fn: func(env *Env, input []byte) ([]byte, error) {
			return []byte("Hello, world"), nil
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.RunSession(hello, SessionOptions{})
		if err != nil || res.PALError != nil {
			b.Fatalf("%v %v", err, res.PALError)
		}
	}
}

// BenchmarkSessionThroughput measures back-to-back session throughput of the
// pipeline engine on cached SLB images — classic vs partitioned — in real
// sessions/second, and confirms the image cache keeps the hot path free of
// relinking.
func BenchmarkSessionThroughput(b *testing.B) {
	hello := &PALFunc{
		PALName: "hello",
		Binary:  DescriptorCode("hello", "1.0", nil, nil),
		Fn: func(env *Env, input []byte) ([]byte, error) {
			return []byte("Hello, world"), nil
		},
	}
	run := func(b *testing.B, f func(p *Platform) (*SessionResult, error)) {
		p, err := NewPlatform(Config{Seed: "bench-tp", Profile: ProfileFuture()})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the image cache so the measured loop is the steady state.
		if _, err := f(p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		start := nowSeconds()
		for i := 0; i < b.N; i++ {
			res, err := f(p)
			if err != nil || res.PALError != nil {
				b.Fatalf("%v %v", err, res.PALError)
			}
		}
		b.StopTimer()
		if dt := nowSeconds() - start; dt > 0 {
			b.ReportMetric(float64(b.N)/dt, "sessions/s")
		}
		builds := p.Metrics.Snapshot().Sum("flicker_slb_image_cache_total", "build")
		b.ReportMetric(builds, "image_builds")
		if builds != 1 {
			b.Fatalf("hot path relinked the SLB image (%v builds)", builds)
		}
	}
	b.Run("classic", func(b *testing.B) {
		run(b, func(p *Platform) (*SessionResult, error) {
			return p.RunSession(hello, SessionOptions{})
		})
	})
	b.Run("partitioned", func(b *testing.B) {
		run(b, func(p *Platform) (*SessionResult, error) {
			return p.RunSessionConcurrent(hello, SessionOptions{})
		})
	})
}

// gateRounds is how many paired rounds each iteration of a gate benchmark
// runs. A gate holds the median of its per-round ratios to its bar, so a
// one-iteration run (-benchtime=1x) already carries the evidence, and a
// drift in the host's speed between rounds cancels within each round.
const gateRounds = 5

// pairedRounds times one fixed burst of every config per round, gateRounds
// rounds per iteration, rotating the order from round to round so that no
// config always runs first. It collects garbage before each burst, so no
// burst pays for another's allocations, and returns each round's times.
func pairedRounds(b *testing.B, bursts ...func() error) [][]time.Duration {
	b.Helper()
	var rounds [][]time.Duration
	for r := 0; r < b.N*gateRounds; r++ {
		t := make([]time.Duration, len(bursts))
		for k := range bursts {
			c := (r + k) % len(bursts)
			runtime.GC()
			start := time.Now()
			if err := bursts[c](); err != nil {
				b.Fatal(err)
			}
			t[c] = time.Since(start)
		}
		rounds = append(rounds, t)
	}
	return rounds
}

// medianRatio is the median over rounds of config num's burst time over
// config den's: den's speedup over num when their bursts are the same size.
func medianRatio(rounds [][]time.Duration, num, den int) float64 {
	r := make([]float64, len(rounds))
	for i, t := range rounds {
		r[i] = float64(t[num]) / float64(t[den])
	}
	slices.Sort(r)
	return (r[(len(r)-1)/2] + r[len(r)/2]) / 2
}

// burst makes n calls of run from workers goroutines, call i from worker
// i mod workers, and returns the first error.
func burst(n, workers int, run func(i int) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := run(i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// okPAL is a PAL that replies "ok" at once.
func okPAL(name string) *PALFunc {
	return &PALFunc{
		PALName: name,
		Binary:  DescriptorCode(name, "1.0", nil, nil),
		Fn:      func(*Env, []byte) ([]byte, error) { return []byte("ok"), nil },
	}
}

// BenchmarkSessionThroughputTraced measures the tracing tax on the classic
// session loop: paired rounds of 2000 back-to-back sessions on a platform
// with no tracer, with a tracer at sample rate 0 (the sampler rejects every
// root: one counter check per session) and at rate 1 (every session pays
// full span assembly into a flight recorder). It reports each rate's
// overhead over the untraced loop, and gates sampling off below 5%
// ("trace overhead: N.NN%").
func BenchmarkSessionThroughputTraced(b *testing.B) {
	const sessions = 2000
	hello := okPAL("hello")
	// rig builds a warm platform, traced at the rate unless it is negative,
	// and returns a burst of sessions and the recorder that keeps them.
	rig := func(rate float64) (func() error, *TraceFlightRecorder) {
		p, err := NewPlatform(Config{Seed: "bench-trace", Profile: ProfileFuture()})
		if err != nil {
			b.Fatal(err)
		}
		var tracer *Tracer
		var rec *TraceFlightRecorder
		if rate >= 0 {
			tracer = NewTracer("bench", p.Clock.Now)
			tracer.SetSampleRate(rate)
			rec = NewTraceFlightRecorder(64, 64, 0)
			tracer.OnComplete(rec.Offer)
		}
		run := func() error {
			root := tracer.StartSampled("bench.run")
			var o SessionOptions
			if root != nil {
				o.TraceID = root.TraceHex()
				o.Observer = NewSessionTraceObserver(root)
			}
			res, err := p.RunSession(hello, o)
			if err != nil {
				return err
			}
			root.EndErr(res.PALError)
			return res.PALError
		}
		if err := run(); err != nil {
			b.Fatal(err)
		}
		return func() error {
			for i := 0; i < sessions; i++ {
				if err := run(); err != nil {
					return err
				}
			}
			return nil
		}, rec
	}
	untraced, _ := rig(-1)
	off, _ := rig(0)
	full, all := rig(1)
	b.ResetTimer()
	rounds := pairedRounds(b, untraced, off, full)
	b.StopTimer()
	overhead := (medianRatio(rounds, 1, 0) - 1) * 100
	b.ReportMetric(overhead, "off-overhead-%")
	b.ReportMetric((medianRatio(rounds, 2, 0)-1)*100, "all-overhead-%")
	b.Logf("trace overhead: %.2f%% sampling-off (median of %d paired rounds)", overhead, len(rounds))
	if _, triggered, sampled := all.Stats(); triggered+sampled == 0 {
		b.Fatal("full sampling retained no traces")
	}
	if overhead >= 5 {
		b.Fatalf("sampling-off trace overhead %.2f%% breaches the 5%% gate", overhead)
	}
}

// BenchmarkPoolThroughput measures how aggregate sessions/s through the
// sharded pool scale from 1 to 4 shards, as paired rounds of a fixed burst
// from max(8, NumCPU) open-loop submitters. Each platform serializes its
// sessions, so the speedup comes from running platforms side by side;
// distinct PAL names spread affinity routing over every shard.
//   - cpu: pure-simulation sessions, which scale with physical cores. It is
//     the shard-scaling gate: 4 shards must clear 3x one shard ("pool
//     scaling: N.NNx"). With fewer than 4 CPUs the shards time-slice, so
//     it logs "pool scaling: SKIPPED" instead and skips the gate.
//   - paced: each session blocks ~200µs on emulated device latency, the
//     regime the pool exists for: shards overlap their devices' waits, so
//     it scales on any core count. Reported, not gated.
func BenchmarkPoolThroughput(b *testing.B) {
	submitters := max(8, runtime.NumCPU())
	rig := func(b *testing.B, shards, sessions int, pace time.Duration) func() error {
		pool, err := NewPool(PoolConfig{
			Shards:   shards,
			QueueLen: 64,
			Platform: Config{Seed: "bench-pool", Profile: ProfileFuture()},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { pool.Close() })
		pals := make([]PAL, 8)
		for i := range pals {
			pals[i] = okPAL("pal-" + string(rune('a'+i)))
			if pace > 0 {
				pals[i] = &sessionOverheadPAL{inner: pals[i], overhead: pace}
			}
			// Warm the PAL's home shard, so bursts run on hot image and
			// measurement caches.
			if _, err := pool.Run(pals[i], SessionOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		return func() error {
			return burst(sessions, submitters, func(i int) error {
				res, err := pool.Run(pals[i%len(pals)], SessionOptions{})
				if err == nil {
					err = res.PALError
				}
				return err
			})
		}
	}
	for _, bc := range []struct {
		name     string
		sessions int
		pace     time.Duration
	}{{"cpu", 2000, 0}, {"paced", 128, 200 * time.Microsecond}} {
		b.Run(bc.name, func(b *testing.B) {
			one, four := rig(b, 1, bc.sessions, bc.pace), rig(b, 4, bc.sessions, bc.pace)
			b.ResetTimer()
			rounds := pairedRounds(b, one, four)
			b.StopTimer()
			x := medianRatio(rounds, 0, 1)
			b.ReportMetric(x, "4-over-1-x")
			if bc.name != "cpu" {
				return
			}
			if n := runtime.NumCPU(); n < 4 {
				b.Logf("pool scaling: SKIPPED (num_cpu=%d < 4)", n)
				return
			}
			b.Logf("pool scaling: %.2fx (4 shards over 1, median of %d paired rounds)", x, len(rounds))
			if x < 3 {
				b.Fatalf("pool shard scaling %.2fx below the 3x gate", x)
			}
		})
	}
}

// BenchmarkFabricThroughput measures the attestation fabric's two
// amortizations over quote-verified hosts, as paired rounds of a burst of
// 256 Runs from 32 submitters. Every session is paced by a 500µs sleep,
// standing in for a device-paced SKINIT and Unseal, paid once per session:
//   - unbatched, 8 PALs: 4 hosts must clear 3x one host ("fabric scaling:
//     N.NNx"), since paced sessions on different hosts overlap whatever
//     the core count;
//   - one host coalescing one PAL's Runs into frames of up to 8, one
//     session each, must clear 5x the unbatched host ("fabric batch
//     scaling: N.NNx").
func BenchmarkFabricThroughput(b *testing.B) {
	ca, err := NewPrivacyCA([]byte("bench-fabric"), 0)
	if err != nil {
		b.Fatal(err)
	}
	rig := func(hosts, maxBatch int) func() error {
		sw := NewNetSwitch(0, 0)
		cfg, npals := FabricControllerConfig{Seed: "bench-fabric", HostInFlight: 1}, 8
		if maxBatch > 1 {
			cfg, npals = FabricControllerConfig{Seed: "bench-fabric", MaxBatch: maxBatch, MaxWait: 2 * time.Millisecond, Window: 4}, 1
		}
		ctrl, err := NewFabricController(sw, ca, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ctrl.Close() })
		pals := make([]PAL, npals)
		for i := range pals {
			pals[i] = &sessionOverheadPAL{inner: okPAL("paced-" + string(rune('a'+i))), overhead: 500 * time.Microsecond}
			if err := ctrl.RegisterPAL(pals[i]); err != nil {
				b.Fatal(err)
			}
		}
		for h := 0; h < hosts; h++ {
			name := fmt.Sprintf("host%d", h)
			host, err := NewFabricHost(sw, ca, FabricHostConfig{
				Name:     name,
				Platform: Config{Seed: "bench-fabric|" + name, Profile: ProfileFuture()},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { host.Close() })
			for _, pl := range pals {
				if err := host.RegisterPAL(pl); err != nil {
					b.Fatal(err)
				}
			}
			if err := ctrl.Admit(name); err != nil {
				b.Fatal(err)
			}
		}
		for _, pl := range pals {
			if _, err := ctrl.Run(pl.Name(), nil); err != nil {
				b.Fatal(err)
			}
		}
		return func() error {
			return burst(256, 32, func(i int) error {
				_, err := ctrl.Run(pals[i%len(pals)].Name(), nil)
				return err
			})
		}
	}
	one, four, batched := rig(1, 1), rig(4, 1), rig(1, 8)
	b.ResetTimer()
	rounds := pairedRounds(b, one, four, batched)
	b.StopTimer()
	scale, amortize := medianRatio(rounds, 0, 1), medianRatio(rounds, 0, 2)
	b.ReportMetric(scale, "4-hosts-x")
	b.ReportMetric(amortize, "batch8-x")
	b.Logf("fabric scaling: %.2fx (4 hosts over 1, median of %d paired rounds)", scale, len(rounds))
	b.Logf("fabric batch scaling: %.2fx (MaxBatch 8 over unbatched, one host)", amortize)
	if scale < 3 {
		b.Errorf("fabric scaling %.2fx below the 3x gate", scale)
	}
	if amortize < 5 {
		b.Errorf("fabric batch amortization %.2fx below the 5x gate", amortize)
	}
}

// BenchmarkBatchThroughput measures the Section 7 amortization on the real
// engine: requests/second through one pool shard when every request pays
// its own session (batch=1) versus when the coalescer groups 8 requests
// behind one SKINIT (batch=8). The PAL is device-paced — its fixed
// per-session work (the stand-in for SKINIT + Seal/Unseal on a hardware
// TPM, scaled down to keep the benchmark quick) dwarfs per-request work,
// the regime batching exists for — so batch=8 must sustain at least 3×
// the requests/s of singletons on the same shard count. Each iteration is
// a fixed burst of 256 requests from 16 goroutines, so even a one-iteration
// run (-benchtime=1x) offers the coalescer groups to form.
func BenchmarkBatchThroughput(b *testing.B) {
	const senders, perSender = 16, 16
	paced := &PALFunc{
		PALName: "paced",
		Binary:  DescriptorCode("paced", "1.0", nil, nil),
		Fn: func(env *Env, input []byte) ([]byte, error) {
			// Per-request application work: a short CPU-bound hash chain
			// (a timer sleep here would overshoot under load and swamp the
			// measurement on slow hosts).
			d := SHA1Sum(input)
			for i := 0; i < 32; i++ {
				d = SHA1Sum(d[:])
			}
			return append([]byte("ok:"), d[:4]...), nil
		},
	}
	run := func(b *testing.B, maxBatch int) float64 {
		pool, err := NewPool(PoolConfig{
			Shards:   1,
			QueueLen: 64,
			MaxBatch: maxBatch,
			MaxWait:  2 * time.Millisecond,
			Platform: Config{Seed: "bench-batch", Profile: ProfileFuture()},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		// Session entry/exit overhead: a BatchPAL whose OpenBatch sleeps
		// once per session (SKINIT + Unseal stand-in) regardless of how
		// many requests ride behind it.
		entry := &sessionOverheadPAL{inner: paced, overhead: 2 * time.Millisecond}
		if _, err := pool.Run(entry, SessionOptions{Input: []byte("warm")}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		start := nowSeconds()
		for i := 0; i < b.N; i++ {
			if err := burst(senders*perSender, senders, func(k int) error {
				res, err := pool.Run(entry, SessionOptions{Input: []byte(fmt.Sprintf("req-%d", k))})
				if err == nil {
					err = res.PALError
				}
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		dt := nowSeconds() - start
		if dt <= 0 {
			return 0
		}
		rps := float64(b.N*senders*perSender) / dt
		b.ReportMetric(rps, "requests/s")
		return rps
	}
	var single, batched float64
	b.Run("singleton", func(b *testing.B) { single = run(b, 1) })
	b.Run("batch=8", func(b *testing.B) { batched = run(b, 8) })
	if single > 0 && batched > 0 {
		speedup := batched / single
		b.Logf("amortization: %.0f req/s singleton, %.0f req/s batched (%.1fx)", single, batched, speedup)
		if speedup < 3 {
			b.Fatalf("batch=8 speedup %.2fx < 3x acceptance bar", speedup)
		}
	}
}

// sessionOverheadPAL wraps a PAL with a fixed real-time cost paid once per
// SESSION (at OpenBatch), modeling SKINIT + Unseal on hardware: singletons
// pay it per request, batches amortize it across the group.
type sessionOverheadPAL struct {
	inner    PAL
	overhead time.Duration
}

func (s *sessionOverheadPAL) Name() string { return s.inner.Name() }
func (s *sessionOverheadPAL) Code() []byte { return s.inner.Code() }
func (s *sessionOverheadPAL) Run(env *Env, input []byte) ([]byte, error) {
	time.Sleep(s.overhead)
	return s.inner.Run(env, input)
}
func (s *sessionOverheadPAL) OpenBatch(env *Env, header []byte, n int) (any, error) {
	time.Sleep(s.overhead)
	return nil, nil
}
func (s *sessionOverheadPAL) RunRequest(env *Env, bctx any, i int, input []byte) ([]byte, error) {
	return s.inner.Run(env, input)
}
func (s *sessionOverheadPAL) CloseBatch(env *Env, bctx any) ([]byte, error) { return nil, nil }

func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }
