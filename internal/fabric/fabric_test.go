package fabric

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/metrics"
	"flicker/internal/netsim"
	"flicker/internal/pal"
	"flicker/internal/simtime"
)

func testPAL(name string) pal.PAL {
	return &pal.Func{
		PALName: name,
		Binary:  pal.DescriptorCode(name, "1.0", nil, nil),
		Fn: func(_ *pal.Env, input []byte) ([]byte, error) {
			return append([]byte(name+":"), input...), nil
		},
	}
}

// tamperedAdmissionPAL computes the right output but from different code
// bytes: its launch measurement — and therefore its quoted PCR-17 — can
// never match the controller's registered build.
func tamperedAdmissionPAL() pal.PAL {
	return &pal.Func{
		PALName: AdmissionPALName,
		Binary:  pal.DescriptorCode(AdmissionPALName, "1.0-evil", nil, nil),
		Fn: func(_ *pal.Env, input []byte) ([]byte, error) {
			return AdmissionReply(input), nil
		},
	}
}

type fabRig struct {
	clock *simtime.Clock
	sw    *netsim.Switch
	ca    *attest.PrivacyCA
	ctrl  *Controller
	hosts []*Host
	reg   *metrics.Registry
}

// newFabRig stands up a controller and n admitted hosts, all serving the
// "echo" test PAL.
func newFabRig(t *testing.T, n int, ccfg ControllerConfig) *fabRig {
	t.Helper()
	r := &fabRig{clock: simtime.New(), reg: metrics.NewRegistry()}
	r.sw = netsim.NewSwitch(r.clock, 2*time.Millisecond, 0)
	ca, err := attest.NewPrivacyCA([]byte("fabric-test-ca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.ca = ca
	ccfg.Metrics = r.reg
	r.ctrl, err = NewController(r.sw, ca, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.ctrl.Close() })
	if err := r.ctrl.RegisterPAL(testPAL("echo")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.addHost(t, fmt.Sprintf("host%d", i), nil)
	}
	return r
}

// metric reads the controller's registry: the summed series of one family
// whose label values include values.
func (r *fabRig) metric(family string, values ...string) float64 {
	return r.reg.Snapshot().Sum(family, values...)
}

func (r *fabRig) addHost(t *testing.T, name string, admission pal.PAL) *Host {
	t.Helper()
	h, err := NewHost(r.sw, r.ca, HostConfig{
		Name:         name,
		Platform:     core.PlatformConfig{Seed: "fabric-test|" + name},
		AdmissionPAL: admission,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterPAL(testPAL("echo")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	r.hosts = append(r.hosts, h)
	return h
}

func TestFabricAdmitAndRun(t *testing.T) {
	r := newFabRig(t, 2, ControllerConfig{Seed: "t"})
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.ctrl.Live(); got != 2 {
		t.Fatalf("Live() = %d, want 2", got)
	}
	for i := 0; i < 6; i++ {
		out, err := r.ctrl.Run("echo", []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "echo:ping" {
			t.Fatalf("output = %q", out)
		}
	}
	if n := r.metric("flicker_fabric_runs_total", "ok"); n != 6 {
		t.Fatalf("completed runs = %v, want 6", n)
	}
	if ok, rej := r.metric("flicker_fabric_admissions_total", "ok"), r.metric("flicker_fabric_admissions_total", "rejected"); ok != 2 || rej != 0 {
		t.Fatalf("admissions = %v ok / %v rejected, want 2/0", ok, rej)
	}
	// Affinity: with no load, every "echo" session lands on one member.
	busy := 0
	for _, hs := range r.ctrl.Hosts() {
		if hs.Sessions > 0 {
			busy++
			if hs.Sessions != 6 {
				t.Errorf("home host %s ran %d sessions, want all 6", hs.Name, hs.Sessions)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("%d hosts ran sessions under no load, want 1 (affinity)", busy)
	}
}

func TestFabricRunWithoutAdmissionFails(t *testing.T) {
	r := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	if _, err := r.ctrl.Run("echo", []byte("x")); !errors.Is(err, ErrNoHosts) {
		t.Fatalf("Run before any admission = %v, want ErrNoHosts", err)
	}
}

// A host whose admission PAL differs from the controller's registered
// build produces a quote over the wrong PCR-17 and must never be assigned
// a session.
func TestFabricTamperedHostRejectedAndNeverScheduled(t *testing.T) {
	r := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	evil := r.addHost(t, "evil", tamperedAdmissionPAL())
	if err := r.ctrl.Admit("host0"); err != nil {
		t.Fatal(err)
	}
	err := r.ctrl.Admit("evil")
	if err == nil {
		t.Fatal("tampered host admitted")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("admission error = %v", err)
	}
	// Load the fabric; every job must land on the good host.
	for i := 0; i < 10; i++ {
		if _, err := r.ctrl.Run("echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := evil.pool.Metrics().Snapshot().Sum("flicker_pool_submissions_total"); n != 0 {
		t.Fatalf("rejected host executed %v sessions, want 0", n)
	}
	if n := r.metric("flicker_fabric_admissions_total", "rejected"); n != 1 {
		t.Fatalf("rejected admissions = %v, want 1", n)
	}
	for _, hs := range r.ctrl.Hosts() {
		if hs.Name == "evil" && hs.State != "rejected" {
			t.Fatalf("evil host state = %s, want rejected", hs.State)
		}
	}
}

// With the nonce freshness window shorter than the network round trip, the
// quote comes back stale and admission is rejected end to end.
func TestFabricStaleNonceRejected(t *testing.T) {
	clock := simtime.New()
	// RTT 2s: challenge leg charges 1s, response leg 1s — past a 1.5s window.
	sw := netsim.NewSwitch(clock, 2*time.Second, 0)
	ca, err := attest.NewPrivacyCA([]byte("fabric-test-ca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(sw, ca, ControllerConfig{Seed: "t", NonceWindow: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(sw, ca, HostConfig{Name: "slow", Platform: core.PlatformConfig{Seed: "slow"}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := ctrl.Admit("slow"); !errors.Is(err, attest.ErrStaleNonce) {
		t.Fatalf("admission over slow net = %v, want ErrStaleNonce", err)
	}
	if ctrl.Live() != 0 {
		t.Fatal("stale-quoted host is live")
	}
}

// A man-in-the-middle that caches one good challenge response and replays
// it for the next challenge is caught by the nonce authority: the replayed
// quote answers an already-redeemed challenge.
func TestFabricReplayedQuoteRejected(t *testing.T) {
	r := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	h := r.hosts[0]

	// Interpose on the host's port: record the first admission response,
	// replay it for every later challenge.
	var cached atomic.Pointer[[]byte]
	real := h.handle
	h.port.SetHandler(func(dst, req []byte) []byte {
		if len(req) > 0 && req[0] == kindChallenge {
			if old := cached.Load(); old != nil {
				return append(dst, *old...)
			}
			resp := real(dst, req)
			cp := append([]byte(nil), resp...)
			cached.Store(&cp)
			return resp
		}
		return real(dst, req)
	})

	if err := r.ctrl.Admit(h.Name()); err != nil {
		t.Fatalf("first admission: %v", err)
	}
	err := r.ctrl.Admit(h.Name())
	if !errors.Is(err, attest.ErrReplayedNonce) {
		t.Fatalf("replayed admission = %v, want ErrReplayedNonce", err)
	}
	// The failed re-admission demoted the member: no scheduling.
	if r.ctrl.Live() != 0 {
		t.Fatal("replaying host is live")
	}
}

// Drain, restart, re-admit: the full lifecycle a rolling upgrade needs.
func TestFabricReadmissionAfterDrainAndRestart(t *testing.T) {
	r := newFabRig(t, 2, ControllerConfig{Seed: "t"})
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ctrl.Drain("host0"); err != nil {
		t.Fatal(err)
	}
	if r.ctrl.Live() != 1 {
		t.Fatalf("Live() after drain = %d, want 1", r.ctrl.Live())
	}
	// Work still flows through the survivor.
	if _, err := r.ctrl.Run("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The drained host refuses direct traffic too: a singleton run frame
	// comes back with the draining status.
	if raw := r.hosts[0].handle(nil, singletonFrame("echo", nil)); raw[0] == kindRunBatchResp {
		rr, err := decodeRunBatchResp(raw[1:])
		if err != nil || len(rr.Members) != 1 || rr.Members[0].Status != runDraining {
			t.Fatalf("drained host run status = %+v, %v; want draining", rr, err)
		}
	} else {
		t.Fatalf("drained host answered kind %d, want a run reply", raw[0])
	}

	// "Restart": the old process goes away, a new host attaches under the
	// same name (the switch allows reuse of a closed port) and re-attests.
	r.hosts[0].Close()
	h := r.addHost(t, "host0", nil)
	if err := r.ctrl.Admit(h.Name()); err != nil {
		t.Fatalf("re-admission after restart: %v", err)
	}
	if r.ctrl.Live() != 2 {
		t.Fatalf("Live() after re-admission = %d, want 2", r.ctrl.Live())
	}
	for i := 0; i < 4; i++ {
		if _, err := r.ctrl.Run("echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
}

// Killing a host mid-load loses no accepted jobs: every Run either lands
// on the dead host before the kill (completes) or is resubmitted to a
// survivor.
func TestFabricFailoverLosesNoAcceptedJobs(t *testing.T) {
	r := newFabRig(t, 3, ControllerConfig{Seed: "t", HostInFlight: 1})
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
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
	for _, hs := range r.ctrl.Hosts() {
		if hs.Name == "host1" && hs.State != "lost" && hs.State != "admitted" {
			t.Fatalf("killed host state = %s", hs.State)
		}
	}
}

func TestFabricHeartbeatMarksLostHost(t *testing.T) {
	r := newFabRig(t, 2, ControllerConfig{Seed: "t", MissThreshold: 2})
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	r.hosts[1].Kill()
	r.ctrl.Tick()
	if r.ctrl.Live() != 2 {
		t.Fatalf("Live() after 1 miss = %d, want 2 (below threshold)", r.ctrl.Live())
	}
	r.ctrl.Tick()
	if r.ctrl.Live() != 1 {
		t.Fatalf("Live() after 2 misses = %d, want 1", r.ctrl.Live())
	}
	// Work still routes to the survivor.
	if _, err := r.ctrl.Run("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// Periodic re-attestation keeps verifying live members and evicts a host
// whose quotes stop verifying (here: its handler starts replaying).
func TestFabricPeriodicReattestation(t *testing.T) {
	r := newFabRig(t, 2, ControllerConfig{Seed: "t", ReattestEvery: 2})
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	r.ctrl.Tick() // tick 1: heartbeats only
	r.ctrl.Tick() // tick 2: re-attest sweep
	st := r.ctrl.Hosts()
	for _, hs := range st {
		if hs.Reattests != 1 {
			t.Fatalf("host %s reattests = %d, want 1", hs.Name, hs.Reattests)
		}
	}
	// host1 goes rogue: all later challenges get a garbage quote.
	h := r.hosts[1]
	real := h.handle
	h.port.SetHandler(func(dst, req []byte) []byte {
		if len(req) > 0 && req[0] == kindChallenge {
			resp := real(dst, req)
			// Flip a bit in the tail (the signature field).
			resp[len(resp)-1] ^= 0xFF
			return resp
		}
		return real(dst, req)
	})
	r.ctrl.Tick()
	r.ctrl.Tick() // tick 4: re-attest fails for host1
	if r.ctrl.Live() != 1 {
		t.Fatalf("Live() after failed re-attestation = %d, want 1", r.ctrl.Live())
	}
}

func TestFabricPALErrorIsNotResubmitted(t *testing.T) {
	r := newFabRig(t, 2, ControllerConfig{Seed: "t"})
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
	for _, h := range r.hosts {
		if err := h.RegisterPAL(failing); err != nil {
			t.Fatal(err)
		}
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.ctrl.Run("fail", nil)
	var pe *PALError
	if !errors.As(err, &pe) {
		t.Fatalf("Run(fail) = %v, want *PALError", err)
	}
	if n := r.metric("flicker_fabric_resubmits_total"); n != 0 {
		t.Fatalf("PAL error caused %v resubmits, want 0", n)
	}
}

// A host advertising a PAL whose launch measurement differs from the
// controller's registered build is rejected at inventory check.
func TestFabricInventoryMismatchRejected(t *testing.T) {
	r := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	h := r.hosts[0]
	// The host builds "echo" from different code than the controller did.
	forged := &pal.Func{
		PALName: "echo",
		Binary:  pal.DescriptorCode("echo", "9.9-backdoored", nil, nil),
		Fn:      func(_ *pal.Env, in []byte) ([]byte, error) { return in, nil },
	}
	if err := h.RegisterPAL(forged); err != nil {
		t.Fatal(err)
	}
	err := r.ctrl.Admit(h.Name())
	if err == nil || !strings.Contains(err.Error(), "launch measurement diverges") {
		t.Fatalf("admission with forged inventory = %v", err)
	}
}

func TestFabricMetricsCounters(t *testing.T) {
	r := newFabRig(t, 2, ControllerConfig{Seed: "t"})
	r.addHost(t, "evil", tamperedAdmissionPAL())
	for _, name := range []string{"host0", "host1"} {
		if err := r.ctrl.Admit(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ctrl.Admit("evil"); err == nil {
		t.Fatal("evil admitted")
	}
	for i := 0; i < 3; i++ {
		if _, err := r.ctrl.Run("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	adm := r.reg.Counter("flicker_fabric_admissions_total", "", "result")
	if got := adm.With("ok").Value(); got != 2 {
		t.Fatalf("admissions ok = %v, want 2", got)
	}
	if got := adm.With("rejected").Value(); got != 1 {
		t.Fatalf("admissions rejected = %v, want 1", got)
	}
	runs := r.reg.Counter("flicker_fabric_runs_total", "", "result")
	if got := runs.With("ok").Value(); got != 3 {
		t.Fatalf("runs ok = %v, want 3", got)
	}
	ev := r.reg.Counter("flicker_fabric_host_events_total", "", "event")
	if got := ev.With("up").Value(); got != 2 {
		t.Fatalf("host up events = %v, want 2", got)
	}
}

// Concurrent admissions, runs, ticks, and a kill under -race.
func TestFabricConcurrentTrafficRace(t *testing.T) {
	r := newFabRig(t, 3, ControllerConfig{Seed: "t", ReattestEvery: 3})
	for _, h := range r.hosts {
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
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

// With default config an unbatched PAL's Runs queue on one dispatcher, so
// the home host's window fills before its in-flight count reaches
// HostInFlight. A full window must count as saturated: sixteen concurrent
// Runs of a slow PAL spill to the second host instead of waiting for the
// home host's window.
func TestFabricUnbatchedRunsSpillPastFullWindow(t *testing.T) {
	r := newFabRig(t, 2, ControllerConfig{Seed: "t"})
	paced := &pal.Func{
		PALName: "paced",
		Binary:  pal.DescriptorCode("paced", "1.0", nil, nil),
		Fn: func(_ *pal.Env, in []byte) ([]byte, error) {
			time.Sleep(5 * time.Millisecond)
			return in, nil
		},
	}
	if err := r.ctrl.RegisterPAL(paced); err != nil {
		t.Fatal(err)
	}
	for _, h := range r.hosts {
		if err := h.RegisterPAL(paced); err != nil {
			t.Fatal(err)
		}
		if err := r.ctrl.Admit(h.Name()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := r.ctrl.Run("paced", []byte{byte(i)}); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, hs := range r.ctrl.Hosts() {
		if hs.Sessions == 0 {
			t.Errorf("%s served no session of 16 concurrent Runs", hs.Name)
		}
	}
}
