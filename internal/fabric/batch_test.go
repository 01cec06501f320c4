package fabric

// Tests of the batched, pipelined fabric RPC tentpole: wire-frame
// coalescing, the runBatch codec frames and their forged-count clamps,
// suffix-only failover resubmission, the heartbeat priority lane, and the
// batch trace shape.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flicker/internal/pal"
	"flicker/internal/trace"
)

// batchRig is a fabRig with the wire-frame coalescer enabled and every host
// admitted.
func batchRig(t *testing.T, hosts int, ccfg ControllerConfig) *fabRig {
	t.Helper()
	if ccfg.MaxBatch == 0 {
		ccfg.MaxBatch = 8
	}
	r := newFabRig(t, hosts, ccfg)
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// runAll fires n concurrent Runs with distinct inputs and returns the
// outputs, failing the test on any error.
func runAll(t *testing.T, c *Controller, n int) map[string]string {
	t.Helper()
	var mu sync.Mutex
	outs := make(map[string]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fmt.Sprintf("j%d", i)
			out, err := c.Run("echo", []byte(in))
			if err != nil {
				t.Errorf("run %s: %v", in, err)
				return
			}
			mu.Lock()
			outs[in] = string(out)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return outs
}

// Batched runs must return byte-identical outputs to singleton fabric runs,
// while executing strictly fewer physical sessions than runs (the
// amortization that motivates the whole tentpole).
func TestFabricBatchedOutputsBitIdenticalToSingleton(t *testing.T) {
	const runs = 32

	// Singleton fabric: one session per run.
	single := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	if err := single.ctrl.Admit("host0"); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, runs)
	for i := 0; i < runs; i++ {
		in := fmt.Sprintf("j%d", i)
		out, err := single.ctrl.Run("echo", []byte(in))
		if err != nil {
			t.Fatal(err)
		}
		want[in] = string(out)
	}

	// Batched fabric: same inputs, concurrent so the coalescer can group.
	r := batchRig(t, 1, ControllerConfig{Seed: "t", MaxBatch: 8, MaxWait: 50 * time.Millisecond})
	got := runAll(t, r.ctrl, runs)
	for in, w := range want {
		if got[in] != w {
			t.Fatalf("batched output for %q = %q, singleton = %q", in, got[in], w)
		}
	}

	// Amortization: the batch host executed fewer physical sessions than
	// runs (1 admission session + one per flushed frame).
	phys := int(r.hosts[0].pool.Metrics().Snapshot().Sum("flicker_sessions_total", "ok"))
	if phys >= runs+1 {
		t.Fatalf("batched fabric ran %d physical sessions for %d runs — nothing coalesced", phys, runs)
	}
	// The coalescer's own accounting saw at least one flush.
	flush := r.reg.Counter("flicker_fabric_batch_flush_total", "", "reason")
	total := 0.0
	for _, reason := range []string{"full", "timeout", "drain"} {
		total += flush.With(reason).Value()
	}
	if total == 0 {
		t.Fatal("flicker_fabric_batch_flush_total never incremented")
	}
}

// Killing a host mid-load under batching loses no accepted jobs — the
// batched analogue of TestFabricFailoverLosesNoAcceptedJobs.
func TestFabricBatchFailoverLosesNoAcceptedJobs(t *testing.T) {
	r := batchRig(t, 3, ControllerConfig{Seed: "t", HostInFlight: 1, MaxBatch: 4})
	const jobs = 60
	var wg sync.WaitGroup
	var done atomic.Int64
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := r.ctrl.Run("echo", []byte(fmt.Sprintf("j%d", i)))
			if err != nil {
				errs <- fmt.Errorf("job %d: %w", i, err)
				return
			}
			if string(out) != fmt.Sprintf("echo:j%d", i) {
				errs <- fmt.Errorf("job %d: bad output %q", i, out)
				return
			}
			done.Add(1)
		}(i)
		if i == jobs/2 {
			r.hosts[1].Kill()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if done.Load() != jobs {
		t.Fatalf("completed %d/%d jobs", done.Load(), jobs)
	}
}

// rewriteBatchResp decodes a kindRunBatchResp frame, applies fn, and
// re-encodes it over raw, in the caller's reply buffer — the interposition
// hook the failover tests use to forge host behavior at the wire.
func rewriteBatchResp(t *testing.T, raw []byte, fn func(*runBatchResp)) []byte {
	t.Helper()
	if len(raw) == 0 || raw[0] != kindRunBatchResp {
		return raw
	}
	br, err := decodeRunBatchResp(raw[1:])
	if err != nil {
		t.Errorf("interposer decode: %v", err)
		return raw
	}
	fn(br)
	return append(raw[:0], appendRunBatchResp(nil, br)...)
}

// When a batch aborts mid-frame, the host reports the completed prefix as
// final and the interrupted suffix as runLost; the controller must deliver
// the prefix replies untouched and resubmit ONLY the suffix — to a host that
// has not already failed the job — under the same trace root.
func TestFabricBatchSuffixOnlyResubmission(t *testing.T) {
	r := batchRig(t, 2, ControllerConfig{
		Seed: "t", MaxBatch: 4, MaxWait: 3 * time.Second, TraceSample: 1,
	})

	var mu sync.Mutex
	received := map[string][]string{} // host -> member inputs, in arrival order
	var rewritten []string            // inputs whose status we forged to runLost
	var forged atomic.Bool
	for _, h := range r.hosts {
		h := h
		real := h.handle
		h.port.SetHandler(func(dst, req []byte) []byte {
			// Every run frame, singletons included, is a runBatch frame.
			if len(req) == 0 || req[0] != kindRunBatch {
				return real(dst, req)
			}
			br, err := decodeRunBatch(req[1:])
			if err != nil {
				t.Errorf("interposer decode: %v", err)
				return real(dst, req)
			}
			var inputs []string
			for _, m := range br.Members {
				inputs = append(inputs, string(m.Input))
			}
			mu.Lock()
			received[h.name] = append(received[h.name], inputs...)
			mu.Unlock()
			resp := real(dst, append([]byte(nil), req...))
			if len(br.Members) >= 2 && forged.CompareAndSwap(false, true) {
				// Forge an abort that interrupted the second half: the
				// prefix stays as the host produced it, the suffix comes
				// back runLost.
				cut := len(br.Members) / 2
				mu.Lock()
				rewritten = append(rewritten, inputs[cut:]...)
				mu.Unlock()
				return rewriteBatchResp(t, resp, func(b *runBatchResp) {
					for i := cut; i < len(b.Members); i++ {
						b.Members[i] = runBatchMemberResp{Status: runLost, Err: "forced abort"}
					}
				})
			}
			return resp
		})
	}

	outs := runAll(t, r.ctrl, 4)
	for i := 0; i < 4; i++ {
		in := fmt.Sprintf("j%d", i)
		if outs[in] != "echo:"+in {
			t.Fatalf("output for %q = %q", in, outs[in])
		}
	}
	if !forged.Load() {
		t.Fatal("no batch frame with >= 2 members ever formed; coalescer broken")
	}

	mu.Lock()
	defer mu.Unlock()
	// Exactly the forged suffix was resubmitted, nothing else.
	if n := r.metric("flicker_fabric_resubmits_total"); int(n) != len(rewritten) {
		t.Fatalf("resubmits = %v, want %d (the forged suffix only)", n, len(rewritten))
	}
	// And each resubmitted member traveled to a host that had not already
	// failed it: its input shows up exactly twice across the fleet, on two
	// different hosts.
	for _, in := range rewritten {
		hosts := []string{}
		for name, ins := range received {
			for _, got := range ins {
				if got == in {
					hosts = append(hosts, name)
				}
			}
		}
		if len(hosts) != 2 || hosts[0] == hosts[1] {
			t.Fatalf("resubmitted input %q seen on hosts %v, want exactly two distinct", in, hosts)
		}
	}

	// The resubmission is visible as one trace: two attempts under one root,
	// pinned by the failover trigger.
	var td *trace.TraceData
	for _, cand := range r.ctrl.Traces().Recent(0, "", "") {
		if cand.Trigger == "failover-resubmit" {
			td = cand
		}
	}
	if td == nil {
		t.Fatal("no failover-resubmit trace retained")
	}
	attempts := 0
	for _, s := range td.Spans {
		if s.Name == "attempt" {
			attempts++
		}
	}
	if attempts != 2 {
		t.Fatalf("failover trace has %d attempts, want 2 under one root", attempts)
	}
	tree := td.Tree()
	if tree == nil || tree.Name != "fabric.run" {
		t.Fatalf("failover tree root = %+v, want fabric.run", tree)
	}
	treeAttempts := 0
	for _, ch := range tree.Children {
		if ch.Name == "attempt" {
			treeAttempts++
		}
	}
	if treeAttempts != 2 {
		t.Fatalf("failover tree has %d attempt children, want 2 under one root", treeAttempts)
	}
}

// A host that echoes the wrong frame ID (or the wrong member count) is
// talking protocol garbage: the controller treats it like a crash and
// resubmits the whole frame to a survivor.
func TestFabricBatchFrameEchoMismatchIsGarbage(t *testing.T) {
	r := batchRig(t, 2, ControllerConfig{Seed: "t", MaxBatch: 4, MaxWait: 3 * time.Second})
	var victim atomic.Pointer[Host]
	var forged atomic.Bool
	for _, h := range r.hosts {
		h := h
		real := h.handle
		h.port.SetHandler(func(dst, req []byte) []byte {
			resp := real(dst, req)
			if len(req) > 0 && req[0] == kindRunBatch && forged.CompareAndSwap(false, true) {
				victim.Store(h)
				// Flip a bit of the echoed frame ID (first 8 bytes after the
				// kind byte).
				resp[8] ^= 0xFF
			}
			return resp
		})
	}
	outs := runAll(t, r.ctrl, 4)
	for i := 0; i < 4; i++ {
		in := fmt.Sprintf("j%d", i)
		if outs[in] != "echo:"+in {
			t.Fatalf("output for %q = %q", in, outs[in])
		}
	}
	if !forged.Load() {
		t.Fatal("no batch frame ever formed")
	}
	if r.metric("flicker_fabric_resubmits_total") == 0 {
		t.Fatal("frame-echo garbage caused no resubmission")
	}
	for _, hs := range r.ctrl.Hosts() {
		if hs.Name == victim.Load().Name() && hs.State != "lost" {
			t.Fatalf("garbage-talking host state = %s, want lost", hs.State)
		}
	}
}

// Heartbeats ride the priority lane: a host saturated with batched data
// frames (a blocking PAL holding its pool, the pipelining window full, and
// more frames queued) still answers probes — misses stay zero under a
// MissThreshold of 1 — and once the saturation clears, re-attestation
// succeeds and the host is still admitted.
func TestFabricBatchHeartbeatPriorityUnderSaturation(t *testing.T) {
	r := newFabRig(t, 1, ControllerConfig{
		Seed: "t", MaxBatch: 2, MaxWait: time.Millisecond, Window: 1,
		MissThreshold: 1, ReattestEvery: 2,
	})
	release := make(chan struct{})
	blocking := &pal.Func{
		PALName: "block",
		Binary:  pal.DescriptorCode("block", "1.0", nil, nil),
		Fn: func(_ *pal.Env, in []byte) ([]byte, error) {
			<-release
			return in, nil
		},
	}
	if err := r.ctrl.RegisterPAL(blocking); err != nil {
		t.Fatal(err)
	}
	if err := r.hosts[0].RegisterPAL(blocking); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Admit("host0"); err != nil {
		t.Fatal(err)
	}

	const jobs = 6
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := r.ctrl.Run("block", []byte{byte(i)}); err != nil {
				t.Errorf("blocked run %d: %v", i, err)
			}
		}(i)
	}
	// Wait until the host is genuinely saturated: a frame has reached its
	// pool, where the PAL blocks it.
	for i := 0; r.hosts[0].pool.Metrics().Snapshot().Sum("flicker_pool_submissions_total") == 0; i++ {
		if i > 10000 {
			t.Fatal("host never saturated")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Tick 1 (heartbeats only): the probe must bypass the full batch queue
	// and window. With MissThreshold 1, a single queued-behind-data probe
	// would evict the host.
	r.ctrl.Tick()
	if r.ctrl.Live() != 1 {
		t.Fatal("saturated-but-alive host was evicted by heartbeat")
	}
	for _, hs := range r.ctrl.Hosts() {
		if hs.Misses != 0 {
			t.Fatalf("saturated host misses = %d, want 0", hs.Misses)
		}
	}

	close(release)
	wg.Wait()

	// Tick 2: the re-attestation sweep runs now that sessions drained; the
	// host must survive it.
	r.ctrl.Tick()
	if r.ctrl.Live() != 1 {
		t.Fatal("host did not survive re-attestation after saturation")
	}
	for _, hs := range r.ctrl.Hosts() {
		if hs.Reattests != 1 {
			t.Fatalf("reattests = %d, want 1", hs.Reattests)
		}
	}
}

// The lead trace of a batched group descends attempt → host.runBatch →
// host.run → session, with the batch size annotated on the attempt.
func TestFabricBatchTraceShape(t *testing.T) {
	r := batchRig(t, 1, ControllerConfig{
		Seed: "t", MaxBatch: 4, MaxWait: 3 * time.Second, TraceSample: 1,
	})
	outs := runAll(t, r.ctrl, 4)
	if len(outs) != 4 {
		t.Fatalf("only %d/4 runs returned", len(outs))
	}
	var td *trace.TraceData
	for _, cand := range r.ctrl.Traces().Recent(0, "", "") {
		if cand.Name != "fabric.run" {
			continue
		}
		for _, s := range cand.Spans {
			if s.Name == "host.runBatch" {
				td = cand
			}
		}
	}
	if td == nil {
		t.Fatal("no trace carries a host.runBatch segment (lead trace lost)")
	}
	names := spanNames(td)
	for _, want := range []string{"attempt", "host.runBatch", "host.run", "session"} {
		if names[want] == 0 {
			t.Fatalf("batch trace missing %q; have %v", want, names)
		}
	}
	tree := td.Tree()
	if tree == nil || tree.Name != "fabric.run" || len(tree.Children) == 0 {
		t.Fatalf("tree root = %+v", tree)
	}
	var attempt *trace.TraceNode
	for _, ch := range tree.Children {
		if ch.Name == "attempt" {
			attempt = ch
		}
	}
	if attempt == nil {
		t.Fatal("no attempt child under fabric.run root")
	}
	batched := false
	for _, s := range td.Spans {
		if s.Name != "attempt" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "batch" && a.Value != "" && a.Value != "1" {
				batched = true
			}
		}
	}
	if !batched {
		t.Fatalf("no attempt span carries a batch>1 attr; spans = %v", names)
	}
	// The host.runBatch segment hangs under the attempt.
	foundBatchSeg := false
	var walk func(n *trace.TraceNode)
	walk = func(n *trace.TraceNode) {
		if n.Name == "host.runBatch" {
			foundBatchSeg = true
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(attempt)
	if !foundBatchSeg {
		t.Fatal("host.runBatch is not a descendant of the attempt span")
	}
}

// --- codec: runBatch frames --------------------------------------------------

// sampleRunBatchReq and sampleRunBatchResp are the round-trip samples, also
// the seeds of FuzzFabricFrames.
func sampleRunBatchReq() *runBatchReq {
	return &runBatchReq{
		Frame: 0xDEADBEEF01,
		PAL:   []byte("echo"),
		Trace: traceCtx{TraceID: 0xA1, Parent: 0xA2},
		Members: []runBatchMember{
			{Input: []byte("one"), Trace: traceCtx{TraceID: 0xB1, Parent: 0xB2}},
			{Input: nil},
			{Input: []byte("three")},
		},
	}
}

func sampleRunBatchResp() *runBatchResp {
	return &runBatchResp{
		Frame: 7,
		Members: []runBatchMemberResp{
			{Status: runOK, Output: []byte("out0"), Spans: sampleSpans()},
			{Status: runPALError, Err: "boom"},
			{Status: runLost, Err: "aborted"},
		},
		Spans: sampleSpans(),
	}
}

func TestCodecRunBatchRoundTrip(t *testing.T) {
	want := sampleRunBatchReq()
	got, err := decodeRunBatch(appendRunBatch(nil, want)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame != want.Frame || string(got.PAL) != string(want.PAL) || got.Trace != want.Trace {
		t.Fatalf("header round trip = %+v", got)
	}
	if len(got.Members) != 3 {
		t.Fatalf("member count = %d", len(got.Members))
	}
	for i := range want.Members {
		if string(got.Members[i].Input) != string(want.Members[i].Input) ||
			got.Members[i].Trace != want.Members[i].Trace {
			t.Fatalf("member %d = %+v, want %+v", i, got.Members[i], want.Members[i])
		}
	}
	// Trailing bytes are rejected.
	if _, err := decodeRunBatch(append(appendRunBatch(nil, want)[1:], 0xEE)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes = %v", err)
	}
}

func TestCodecRunBatchRespRoundTrip(t *testing.T) {
	want := sampleRunBatchResp()
	raw := appendRunBatchResp(nil, want)
	if len(raw) != runBatchRespSize(want) {
		t.Fatalf("encoded %d bytes, runBatchRespSize says %d", len(raw), runBatchRespSize(want))
	}
	got, err := decodeRunBatchResp(raw[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame != 7 || len(got.Members) != 3 || len(got.Spans) != 2 {
		t.Fatalf("resp round trip = %+v", got)
	}
	if got.Members[0].Status != runOK || string(got.Members[0].Output) != "out0" ||
		len(got.Members[0].Spans) != 2 {
		t.Fatalf("member 0 = %+v", got.Members[0])
	}
	if got.Members[1].Status != runPALError || got.Members[1].Err != "boom" {
		t.Fatalf("member 1 = %+v", got.Members[1])
	}
	if got.Members[2].Status != runLost {
		t.Fatalf("member 2 = %+v", got.Members[2])
	}
	if _, err := decodeRunBatchResp(append(appendRunBatchResp(nil, want)[1:], 0xEE)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes = %v", err)
	}
}

// A forged member count in either direction may not size an allocation: both
// decoders clamp the count against what the remaining bytes could frame —
// the `flickervet untrustedlen` discipline for the new frames.
func TestCodecForgedBatchCountsRejected(t *testing.T) {
	req := &runBatchReq{
		Frame: 1, PAL: []byte("echo"),
		Members: []runBatchMember{{Input: []byte("a")}, {Input: []byte("b")}},
	}
	raw := appendRunBatch(nil, req)[1:]
	body := append([]byte(nil), raw...)
	// Count sits after frame(8) + pal len(2)+name + traceCtx(16).
	off := 8 + 2 + len("echo") + 16
	binary.BigEndian.PutUint16(body[off:off+2], 0xFFFF)
	if _, err := decodeRunBatch(body); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "batch count") {
		t.Fatalf("forged request count = %v, want clamp rejection", err)
	}
	// A forged member input length may not slice past the frame.
	body = append([]byte(nil), raw...)
	binary.BigEndian.PutUint32(body[off+2:off+6], 0xFFFFFFF0)
	if _, err := decodeRunBatch(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("forged member length = %v", err)
	}

	resp := &runBatchResp{Frame: 1, Members: []runBatchMemberResp{{Status: runOK}, {Status: runOK}}}
	rraw := appendRunBatchResp(nil, resp)[1:]
	body = append([]byte(nil), rraw...)
	binary.BigEndian.PutUint16(body[8:10], 0xFFFF) // count sits after frame(8)
	if _, err := decodeRunBatchResp(body); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "batch count") {
		t.Fatalf("forged response count = %v, want clamp rejection", err)
	}
	// Forged member output length.
	body = append([]byte(nil), rraw...)
	binary.BigEndian.PutUint32(body[11:15], 0xFFFFFFF0) // first member: status(1) then output len
	if _, err := decodeRunBatchResp(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("forged member output length = %v", err)
	}
}

// Batched concurrent traffic, ticks, stats reads, and a mid-load kill under
// -race: the batched dispatcher's goroutines (coalescer, frame goroutines,
// window lanes) against the controller's full external surface.
func TestFabricBatchConcurrentTrafficRace(t *testing.T) {
	r := batchRig(t, 3, ControllerConfig{Seed: "t", ReattestEvery: 3, MaxBatch: 4})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := r.ctrl.Run("echo", []byte{byte(w), byte(i)})
				if err != nil && !errors.Is(err, ErrNoHosts) {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			r.ctrl.Tick()
			r.reg.Snapshot()
			r.ctrl.Hosts()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.hosts[2].Kill()
	}()
	wg.Wait()
}

// A caller that sends one Run at a time pays one coalescer hold per PAL,
// not one per Run: after the first Run waits out MaxWait alone, each later
// Run finds no other Run of its PAL outstanding and is sent at once (an
// idle flush). A burst after that quiet period still shares a frame: with
// run x held in the host, the burst's first Run finds x outstanding, so
// the dispatcher holds it and gathers the other three.
func TestFabricHoldSkippedForSequentialRuns(t *testing.T) {
	const maxWait = 250 * time.Millisecond
	r := batchRig(t, 1, ControllerConfig{Seed: "t", MaxBatch: 4, MaxWait: maxWait})
	start := time.Now()
	for i := 0; i < 10; i++ {
		in := fmt.Sprintf("s%d", i)
		out, err := r.ctrl.Run("echo", []byte(in))
		if err != nil || string(out) != "echo:"+in {
			t.Fatalf("sequential run %d = %q, %v", i, out, err)
		}
	}
	if took := time.Since(start); took >= 2*maxWait {
		t.Fatalf("10 sequential Runs took %v, want under 2×MaxWait (%v): each Run was held", took, 2*maxWait)
	}
	if n := r.metric("flicker_fabric_batch_flush_total", "idle"); n < 9 {
		t.Fatalf("idle flushes = %v after 10 sequential Runs, want >= 9", n)
	}

	h := r.hosts[0]
	real := h.handle
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	h.port.SetHandler(func(dst, req []byte) []byte {
		if len(req) > 0 && req[0] == kindRunBatch && held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return real(dst, req)
	})
	xDone := make(chan error, 1)
	go func() {
		out, err := r.ctrl.Run("echo", []byte("x"))
		if err == nil && string(out) != "echo:x" {
			err = fmt.Errorf("run x = %q", out)
		}
		xDone <- err
	}()
	<-entered
	groups := r.metric("flicker_fabric_batch_flush_total")
	outs := runAll(t, r.ctrl, 4)
	n := r.metric("flicker_fabric_batch_flush_total") - groups
	close(release)
	if err := <-xDone; err != nil {
		t.Fatal(err)
	}
	for in, out := range outs {
		if out != "echo:"+in {
			t.Fatalf("burst output for %q = %q", in, out)
		}
	}
	if n != 1 {
		t.Fatalf("a lockstep burst of 4 Runs flushed as %v groups, want one frame of 4", n)
	}
}

// A controller's per-PAL dispatchers share what their holds have learned,
// so a caller that sends one Run at a time over eight PALs pays one
// MaxWait hold in all, not one per PAL: the first PAL's Run waits out the
// hold alone, and every other PAL's first Run follows that evidence and is
// sent at once (an idle flush).
func TestFabricHoldSharedAcrossPALs(t *testing.T) {
	const maxWait = 250 * time.Millisecond
	r := newFabRig(t, 1, ControllerConfig{Seed: "t", MaxBatch: 4, MaxWait: maxWait})
	names := []string{"echo"}
	for i := 1; i < 8; i++ {
		name := fmt.Sprintf("pal-%d", i)
		names = append(names, name)
		if err := r.ctrl.RegisterPAL(testPAL(name)); err != nil {
			t.Fatal(err)
		}
		if err := r.hosts[0].RegisterPAL(testPAL(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ctrl.Admit(r.hosts[0].Name()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, name := range names {
		out, err := r.ctrl.Run(name, []byte("x"))
		if err != nil || string(out) != name+":x" {
			t.Fatalf("run on %s = %q, %v", name, out, err)
		}
	}
	if took := time.Since(start); took >= 2*maxWait {
		t.Fatalf("one Run on each of 8 PALs took %v, want under 2×MaxWait (%v): each PAL paid its own hold", took, 2*maxWait)
	}
	if n := r.metric("flicker_fabric_batch_flush_total", "idle"); n != 7 {
		t.Fatalf("idle flushes = %v after one Run on each of 8 PALs, want 7", n)
	}
	if n := r.metric("flicker_fabric_batch_flush_total", "timeout"); n != 1 {
		t.Fatalf("timeout flushes = %v after one Run on each of 8 PALs, want 1", n)
	}
}
