package fabric

// End-to-end tests of the tracing tentpole: a controller-rooted trace must
// cross the wire into the host, descend through pool/session/phase into
// TPM-command leaf spans, and come back assembled — including the partial
// trace a died-mid-call failover leaves behind.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"flicker/internal/metrics"
	"flicker/internal/pal"
	"flicker/internal/trace"
)

// traceRig is a fabRig with tracing at sample rate 1.
func traceRig(t *testing.T, hosts int, ccfg ControllerConfig) *fabRig {
	t.Helper()
	ccfg.TraceSample = 1.0
	r := newFabRig(t, hosts, ccfg)
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// spanNames collects every span name in a trace.
func spanNames(td *trace.TraceData) map[string]int {
	names := make(map[string]int)
	for _, s := range td.Spans {
		names[s.Name]++
	}
	return names
}

// One traced session must produce a single assembled trace spanning all four
// levels: controller (fabric.run/attempt), host (host.run), session
// (session + pipeline phases), and TPM command leaves.
func TestFabricTraceEndToEnd(t *testing.T) {
	r := traceRig(t, 2, ControllerConfig{Seed: "t"})
	out, err := r.ctrl.Run("echo", []byte("ping"))
	if err != nil || string(out) != "echo:ping" {
		t.Fatalf("Run = %q, %v", out, err)
	}
	fr := r.ctrl.Traces()
	if fr == nil {
		t.Fatal("tracing enabled but Traces() is nil")
	}
	tds := fr.Recent(0, "", "")
	var td *trace.TraceData
	for _, cand := range tds {
		if cand.Name == "fabric.run" {
			td = cand
		}
	}
	if td == nil {
		t.Fatalf("no fabric.run trace retained (got %d traces)", len(tds))
	}
	if td.Attr("pal") != "echo" {
		t.Fatalf("root pal attr = %q", td.Attr("pal"))
	}
	names := spanNames(td)
	for _, want := range []string{"fabric.run", "attempt", "host.run", "session"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q span; have %v", want, names)
		}
	}
	// Phase level and TPM-command level.
	if names["skinit"] == 0 || names["pal-exec"] == 0 {
		t.Fatalf("trace missing phase spans; have %v", names)
	}
	tpmLeaves := 0
	sites := make(map[string]bool)
	for _, s := range td.Spans {
		sites[s.Site] = true
		if strings.HasPrefix(s.Name, "tpm.") {
			tpmLeaves++
		}
	}
	if tpmLeaves == 0 {
		t.Fatalf("trace has no TPM-command leaf spans; have %v", names)
	}
	if !sites["controller"] {
		t.Fatalf("trace sites = %v, want controller present", sites)
	}
	hostSites := 0
	for s := range sites {
		if strings.HasPrefix(s, "host") {
			hostSites++
		}
	}
	if hostSites != 1 {
		t.Fatalf("trace sites = %v, want exactly one host site", sites)
	}
	// The tree reassembles with fabric.run at the root and the host segment
	// under the attempt span.
	tree := td.Tree()
	if tree == nil || tree.Name != "fabric.run" || len(tree.Children) == 0 {
		t.Fatalf("tree root = %+v", tree)
	}
	attempt := tree.Children[0]
	if attempt.Name != "attempt" || len(attempt.Children) == 0 || attempt.Children[0].Name != "host.run" {
		t.Fatalf("attempt subtree = %+v", attempt)
	}
	// Get() resolves the trace by its hex ID (the /traces/{id} path).
	if got := fr.Get(td.ID); got != td {
		t.Fatalf("Get(%s) = %p, want %p", td.ID, got, td)
	}
	// The controller-side latency histogram carries the trace as exemplar.
	exemplarOK := false
	for _, fam := range r.reg.Snapshot().Families {
		if fam.Name != "flicker_fabric_run_seconds" {
			continue
		}
		for _, s := range fam.Series {
			for _, ex := range s.Exemplars {
				if ex.TraceID != "" {
					exemplarOK = true
				}
			}
		}
	}
	if !exemplarOK {
		t.Fatal("flicker_fabric_run_seconds has no exemplar after a traced run")
	}
}

// Admission is traced too: the fabric.admit trace adopts the host.admit
// segment (which wraps the admission session and quote).
func TestFabricAdmissionTrace(t *testing.T) {
	r := traceRig(t, 1, ControllerConfig{Seed: "t"})
	var td *trace.TraceData
	for _, cand := range r.ctrl.Traces().Recent(0, "", "") {
		if cand.Name == "fabric.admit" {
			td = cand
		}
	}
	if td == nil {
		t.Fatal("no fabric.admit trace retained")
	}
	names := spanNames(td)
	if names["host.admit"] == 0 || names["session"] == 0 {
		t.Fatalf("admission trace spans = %v, want host.admit and session", names)
	}
}

// A host that dies mid-call leaves an orphaned attempt span; the resubmitted
// attempt lands under the same root, and the trace is pinned in the flight
// recorder's triggered ring.
func TestFabricFailoverTraceTwoAttemptsOneRoot(t *testing.T) {
	r := traceRig(t, 2, ControllerConfig{Seed: "t"})
	// Find the home host for "echo" deterministically: run once, see who
	// served it, then make that host die on its next singleton run frame.
	if _, err := r.ctrl.Run("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	var victim *Host
	for _, h := range r.hosts {
		if h.pool.Metrics().Snapshot().Sum("flicker_pool_submissions_total") > 0 {
			victim = h
		}
	}
	if victim == nil {
		t.Fatal("no host served the warmup run")
	}
	real := victim.handle
	victim.port.SetHandler(func(dst, req []byte) []byte {
		if len(req) > 0 && req[0] == kindRunBatch {
			if br, err := decodeRunBatch(req[1:]); err == nil && len(br.Members) == 1 {
				victim.port.Close() // dies while serving: the reply is lost
			}
		}
		return real(dst, req)
	})
	out, err := r.ctrl.Run("echo", []byte("failover"))
	if err != nil || string(out) != "echo:failover" {
		t.Fatalf("Run over dying host = %q, %v", out, err)
	}
	var td *trace.TraceData
	for _, cand := range r.ctrl.Traces().Recent(0, "", "") {
		if cand.Trigger == "failover-resubmit" {
			td = cand
		}
	}
	if td == nil {
		t.Fatal("no failover-resubmit trace retained")
	}
	names := spanNames(td)
	if names["attempt"] != 2 {
		t.Fatalf("failover trace has %d attempt spans, want 2 (orphaned + resubmitted); %v", names["attempt"], names)
	}
	// Exactly one attempt carries the died-mid-call error; exactly one
	// host.run segment made it back (the survivor's).
	failed := 0
	for _, s := range td.Spans {
		if s.Name == "attempt" && s.Err != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failover trace has %d failed attempts, want 1", failed)
	}
	if names["host.run"] != 1 {
		t.Fatalf("failover trace has %d host.run segments, want 1 (dead host's was lost)", names["host.run"])
	}
	// Both attempts hang off the single root.
	tree := td.Tree()
	if tree.Name != "fabric.run" || len(tree.Children) != 2 {
		t.Fatalf("failover tree = %s with %d children, want fabric.run with 2", tree.Name, len(tree.Children))
	}
}

// A session that fails on the host ends the root with an error, which the
// flight recorder retains deterministically.
func TestFabricAbortedSessionTraceRetained(t *testing.T) {
	r := traceRig(t, 1, ControllerConfig{Seed: "t"})
	failing := &pal.Func{
		PALName: "fail",
		Binary:  pal.DescriptorCode("fail", "1.0", nil, nil),
		Fn: func(_ *pal.Env, _ []byte) ([]byte, error) {
			return nil, errors.New("application says no")
		},
	}
	if err := r.ctrl.RegisterPAL(failing); err != nil {
		t.Fatal(err)
	}
	if err := r.hosts[0].RegisterPAL(failing); err != nil {
		t.Fatal(err)
	}
	// Re-admit so the new inventory is visible.
	if err := r.ctrl.Admit(r.hosts[0].Name()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ctrl.Run("fail", nil); err == nil {
		t.Fatal("Run(fail) succeeded")
	}
	got := r.ctrl.Traces().Recent(0, "fail", "error")
	if len(got) == 0 {
		t.Fatal("no error trace retained for the failed session")
	}
	td := got[0]
	if td.Trigger != "error" || td.Err == "" {
		t.Fatalf("failed-session trace trigger=%q err=%q, want error trigger", td.Trigger, td.Err)
	}
	// Filters hold: the ok-outcome view must not contain it.
	for _, cand := range r.ctrl.Traces().Recent(0, "fail", "ok") {
		if cand.ID == td.ID {
			t.Fatal("error trace leaked into outcome=ok filter")
		}
	}
}

// A failed re-attestation produces an eviction trace (trigger
// "reattest-evict") and a host-evicted event linked to it by trace ID.
func TestFabricReattestEvictionTraceAndEvent(t *testing.T) {
	events := metrics.NewEventLog(0)
	r := traceRig(t, 2, ControllerConfig{Seed: "t", ReattestEvery: 1, Events: events})
	h := r.hosts[1]
	real := h.handle
	h.port.SetHandler(func(dst, req []byte) []byte {
		if len(req) > 0 && req[0] == kindChallenge {
			resp := real(dst, req)
			// Corrupt a byte inside the PAL inventory (first entry's name):
			// the advertised inventory no longer matches a registered build.
			resp[10] ^= 0xFF
			return resp
		}
		return real(dst, req)
	})
	r.ctrl.Tick()
	if r.ctrl.Live() != 1 {
		t.Fatalf("Live() after eviction tick = %d, want 1", r.ctrl.Live())
	}
	var td *trace.TraceData
	for _, cand := range r.ctrl.Traces().Recent(0, "", "") {
		if cand.Trigger == "reattest-evict" {
			td = cand
		}
	}
	if td == nil {
		t.Fatal("no reattest-evict trace retained")
	}
	if td.Name != "fabric.reattest" || td.Attr("host") != "host1" {
		t.Fatalf("eviction trace = %s host=%q", td.Name, td.Attr("host"))
	}
	// The security event carries the trace ID.
	linked := false
	for _, ev := range events.Events() {
		if ev.Kind == metrics.EventHostEvicted && ev.TraceID == td.ID {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("no %s event linked to trace %s", metrics.EventHostEvicted, td.ID)
	}
}

// With TraceSample zero the controller mints nothing: no tracer, no
// recorder, zero trace context on the wire.
func TestFabricTracingDisabled(t *testing.T) {
	r := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	if err := r.ctrl.Admit("host0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ctrl.Run("echo", nil); err != nil {
		t.Fatal(err)
	}
	if r.ctrl.Traces() != nil || r.ctrl.Tracer() != nil {
		t.Fatal("tracing off but tracer/recorder exist")
	}
}

// Concurrent traced traffic, ticks, flight-recorder reads, and a mid-load
// kill — the -race half of the tracing satellite, at the fabric level.
func TestFabricTraceConcurrentRace(t *testing.T) {
	r := traceRig(t, 3, ControllerConfig{Seed: "t", ReattestEvery: 3})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
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
			fr := r.ctrl.Traces()
			for _, td := range fr.Recent(8, "", "") {
				td.Tree()
				fr.Get(td.ID)
			}
			fr.Stats()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.hosts[2].Kill()
	}()
	wg.Wait()
}
