package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flicker/internal/attest"
	"flicker/internal/flickermod"
	"flicker/internal/hw/cpu"
	"flicker/internal/pal"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// checkPlatformHealthy asserts the invariants the guaranteed-teardown sweep
// must restore on every exit path: interrupts, paging, ring, the
// secure-session flags, the DEV, and the APs.
func checkPlatformHealthy(t *testing.T, p *Platform, where string) {
	t.Helper()
	bsp := p.Machine.BSP()
	if !bsp.InterruptsEnabled() {
		t.Errorf("%s: interrupts disabled", where)
	}
	if !bsp.PagingEnabled() {
		t.Errorf("%s: paging off", where)
	}
	if bsp.Ring() != 0 {
		t.Errorf("%s: BSP in ring %d", where, bsp.Ring())
	}
	if p.Machine.SecureSessionActive() {
		t.Errorf("%s: secure session still active", where)
	}
	if p.Machine.DebugDisabled() {
		t.Errorf("%s: debug access still disabled", where)
	}
	for _, c := range p.Machine.Cores()[1:] {
		if c.State() != cpu.CoreRunning {
			t.Errorf("%s: AP %d state = %v", where, c.ID, c.State())
		}
	}
	if p.Kernel.OnlineCoreCount() != len(p.Machine.Cores()) {
		t.Errorf("%s: cores offline", where)
	}
}

// phaseIndex maps a pipeline's phase names to their position, so the fault
// matrix can reason about which phases completed before the injected fault.
func phaseIndex(names []string, phase string) int {
	for i, n := range names {
		if n == phase {
			return i
		}
	}
	return -1
}

// faultMatrix injects ErrFaultInjected at every phase of a pipeline and
// checks the teardown invariants after each abort. run starts one session
// on a fresh platform; names is the pipeline's phase order.
func faultMatrix(t *testing.T, names []string, mkPlatform func(t *testing.T) *Platform,
	run func(p *Platform, opts SessionOptions) (*SessionResult, error)) {
	launchIdx := phaseIndex(names, "skinit")
	if launchIdx < 0 {
		launchIdx = phaseIndex(names, "skinit-partitioned")
	}
	initIdx := phaseIndex(names, "init-slb")
	extendIdx := phaseIndex(names, "extend-pcr")

	for _, phase := range names {
		t.Run(phase, func(t *testing.T) {
			p := mkPlatform(t)
			base, err := p.Mod.AllocateSLB()
			if err != nil {
				t.Fatal(err)
			}
			vimg, err := BuildImage(helloPAL(), false)
			if err != nil {
				t.Fatal(err)
			}
			vimg.Patch(base)
			pcrBefore := p.TPM.PCRValue(17)

			res, err := run(p, SessionOptions{FailPhase: phase})
			if !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("err = %v, want ErrFaultInjected", err)
			}
			if res != nil {
				t.Fatal("aborted session returned a result")
			}
			checkPlatformHealthy(t, p, "after fault at "+phase)

			idx := phaseIndex(names, phase)
			// Faults inject before the phase body, so the SLB was placed iff
			// the fault landed after init-slb. The window proper must then be
			// zeroed — by cleanup on late faults, by the abort teardown
			// otherwise.
			if idx > initIdx {
				win, err := p.Machine.Mem.Read(base, slb.MaxLen)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(win, make([]byte, slb.MaxLen)) {
					t.Error("SLB window not zeroed after abort")
				}
			}
			// PCR 17 state: untouched before the launch; capped with the
			// session terminator when the fault hit between the launch and the
			// closing extends; the full chain when only the resume was lost.
			pcr := p.TPM.PCRValue(17)
			switch {
			case idx <= launchIdx:
				if pcr != pcrBefore {
					t.Errorf("PCR 17 changed by pre-launch abort: %x", pcr)
				}
			case idx <= extendIdx:
				want := tpm.ExtendDigest(vimg.ExpectedPCR17(), slb.SessionTerminator)
				if pcr != want {
					t.Errorf("PCR 17 not capped after abort: %x, want %x", pcr, want)
				}
			default:
				want := attest.ExpectedFinalPCR17(vimg, nil, []byte("Hello, world"), nil)
				if pcr != want {
					t.Errorf("PCR 17 = %x after post-extend abort, want final chain %x", pcr, want)
				}
			}

			// The platform must be fully usable afterwards, with the PCR
			// algebra intact (SKINIT resets PCR 17, so a capped value cannot
			// leak into the next session).
			nonce := sha1Of("post-fault")
			res2, err := run(p, SessionOptions{Input: []byte("in"), Nonce: &nonce})
			if err != nil || res2.PALError != nil {
				t.Fatalf("follow-up session: %v %v", err, res2.PALError)
			}
			want := attest.ExpectedFinalPCR17(res2.Image, []byte("in"), res2.Outputs, &nonce)
			if res2.PCR17Final != want {
				t.Error("follow-up session PCR-17 chain mismatch")
			}
		})
	}
}

func TestFaultMatrixClassic(t *testing.T) {
	names := []string{"accept", "init-slb", "suspend-os", "skinit", "pal-exec", "cleanup", "extend-pcr", "resume-os"}
	faultMatrix(t, names, newPlatform, func(p *Platform, opts SessionOptions) (*SessionResult, error) {
		return p.RunSession(helloPAL(), opts)
	})
}

func TestFaultMatrixPartitioned(t *testing.T) {
	names := []string{"accept", "init-slb", "save-context", "skinit-partitioned", "pal-exec", "cleanup", "extend-pcr", "resume-core"}
	faultMatrix(t, names, futurePlatform, func(p *Platform, opts SessionOptions) (*SessionResult, error) {
		return p.RunSessionConcurrent(helloPAL(), opts)
	})
}

func TestInjectorHook(t *testing.T) {
	p := newPlatform(t)
	// A nil-returning injector sees every phase, in timeline order.
	var seen []string
	res, err := p.RunSession(helloPAL(), SessionOptions{
		Injector: func(phase string) error {
			seen = append(seen, phase)
			return nil
		},
	})
	if err != nil || res.PALError != nil {
		t.Fatalf("%v %v", err, res.PALError)
	}
	want := []string{"accept", "init-slb", "suspend-os", "skinit", "pal-exec", "cleanup", "extend-pcr", "resume-os"}
	if len(seen) != len(want) {
		t.Fatalf("injector saw %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("injector order %v, want %v", seen, want)
		}
	}

	// A failing injector aborts the session with its error.
	boom := errors.New("injected boom")
	_, err = p.RunSession(helloPAL(), SessionOptions{
		Injector: func(phase string) error {
			if phase == "pal-exec" {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	checkPlatformHealthy(t, p, "after injector abort")
}

func TestImageCacheAcrossSessions(t *testing.T) {
	p := newPlatform(t)
	for i := 0; i < 5; i++ {
		res, err := p.RunSession(helloPAL(), SessionOptions{})
		if err != nil || res.PALError != nil {
			t.Fatalf("session %d: %v %v", i, err, res.PALError)
		}
	}
	builds := func() float64 { return p.Metrics.Snapshot().Sum("flicker_slb_image_cache_total", "build") }
	if got := builds(); got != 1 {
		t.Errorf("5 sessions linked %v images, want 1", got)
	}
	if got := p.Metrics.Snapshot().Sum("flicker_slb_image_cache_total", "hit"); got != 4 {
		t.Errorf("cache hits = %v, want 4", got)
	}
	// Link options are part of the key: a two-stage session needs its own
	// build, as does a different PAL.
	if _, err := p.RunSession(helloPAL(), SessionOptions{TwoStage: true}); err != nil {
		t.Fatal(err)
	}
	if got := builds(); got != 2 {
		t.Errorf("two-stage session reused the classic image (builds = %v)", got)
	}
	other := &pal.Func{
		PALName: "other",
		Binary:  pal.DescriptorCode("other", "1.0", nil, nil),
		Fn:      func(env *pal.Env, in []byte) ([]byte, error) { return []byte("x"), nil },
	}
	if _, err := p.RunSession(other, SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := builds(); got != 3 {
		t.Errorf("distinct PAL did not get its own build (builds = %v)", got)
	}
	// The cached image is measurement-identical to a fresh link.
	res, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildImage(helloPAL(), false)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Patch(res.SLBBase)
	if res.PCR17AtLaunch != fresh.ExpectedPCR17() {
		t.Error("cached image measurement differs from a fresh link")
	}
}

func TestRegistryPathNeverRelinks(t *testing.T) {
	p := newPlatform(t)
	im, err := p.RegisterPAL(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Kernel
	// Launch through sysfs twice; the second staging presents the image's
	// post-patch bytes, which must still resolve to the registration.
	for i := 0; i < 2; i++ {
		if err := k.SysfsWrite(flickermod.SysfsSLB, im.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := k.SysfsWrite(flickermod.SysfsControl, []byte{1}); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		out, err := k.SysfsRead(flickermod.SysfsOutputs)
		if err != nil || string(out) != "Hello, world" {
			t.Fatalf("launch %d outputs = %q, %v", i, out, err)
		}
	}
	if got := p.Metrics.Snapshot().Sum("flicker_slb_image_cache_total", "build"); got != 1 {
		t.Errorf("registry path linked %v images across 2 launches, want 1", got)
	}
}

// The platform's session aggregates live in its metrics registry: outcome
// counts, per-phase simulated time (aborted partials included) and aborts
// by the phase that failed.
func TestSessionStatsAggregation(t *testing.T) {
	p := newPlatform(t)
	var ids []uint64
	var completed time.Duration
	for i := 0; i < 3; i++ {
		res, err := p.RunSession(helloPAL(), SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.SessionID)
		completed += res.Duration()
	}
	if _, err := p.RunSession(helloPAL(), SessionOptions{FailPhase: "skinit"}); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("err = %v", err)
	}
	snap := p.Metrics.Snapshot()
	if ok, aborted := snap.Sum("flicker_sessions_total", "ok"), snap.Sum("flicker_sessions_total", "aborted"); ok != 3 || aborted != 1 {
		t.Fatalf("sessions = %v, aborted = %v", ok, aborted)
	}
	phases := make(map[string]bool)
	for _, f := range snap.Families {
		if f.Name == "flicker_session_phase_seconds" {
			for _, s := range f.Series {
				phases[s.Labels["phase"]] = true
			}
		}
	}
	for _, name := range []string{"accept", "init-slb", "suspend-os", "skinit", "pal-exec", "cleanup", "extend-pcr", "resume-os"} {
		if !phases[name] {
			t.Errorf("flicker_session_phase_seconds has no %q series", name)
		}
	}
	// The phase sums include the aborted session's partial phases (accept
	// through the failed skinit), so they exceed the completed sessions'
	// total by exactly that partial time.
	if phaseSum := snap.Sum("flicker_session_phase_seconds"); phaseSum <= completed.Seconds() {
		t.Errorf("phase totals sum to %vs, want > completed-sessions total %v (aborted partials must count)", phaseSum, completed)
	}
	if got := snap.Sum("flicker_session_aborts_total", "skinit"); got != 1 {
		t.Errorf("skinit aborts = %v, want 1", got)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Errorf("session ids not monotonic: %v", ids)
		}
	}
	// Pipeline names are reported on the result.
	res, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline != "classic" {
		t.Errorf("pipeline = %q", res.Pipeline)
	}
}

// orderObserver records the callback stream and checks charge attribution:
// every charge must name the phase that was open when it was incurred.
type orderObserver struct {
	mu      sync.Mutex
	events  []string
	open    string
	charges map[string]int // phase -> charge count
	badAttr int
	// charged sums each phase's charge durations; phaseErr and sessionErr
	// keep the errors PhaseEnd and SessionEnd reported.
	charged    map[string]time.Duration
	phaseErr   map[string]error
	sessionErr error
}

func (o *orderObserver) SessionStart(m SessionMeta) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, "session-start:"+m.Pipeline+":"+m.PAL)
}

func (o *orderObserver) PhaseStart(sid uint64, phase string, at time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, "start:"+phase)
	o.open = phase
}

func (o *orderObserver) Charge(sid uint64, phase string, c simtime.Charge) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if phase != o.open {
		o.badAttr++
	}
	o.charges[phase]++
	if o.charged == nil {
		o.charged = make(map[string]time.Duration)
	}
	o.charged[phase] += c.Duration
}

func (o *orderObserver) PhaseEnd(sid uint64, phase string, at time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, "end:"+phase)
	o.open = ""
	if err != nil {
		if o.phaseErr == nil {
			o.phaseErr = make(map[string]error)
		}
		o.phaseErr[phase] = err
	}
}

func (o *orderObserver) SessionEnd(sid uint64, at time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, "session-end")
	o.sessionErr = err
}

func TestObserverCallbackOrderAndChargeAttribution(t *testing.T) {
	p := newPlatform(t)
	o := &orderObserver{charges: make(map[string]int)}
	p.AddObserver(o)
	res, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil || res.PALError != nil {
		t.Fatalf("%v %v", err, res.PALError)
	}
	want := []string{"session-start:classic:hello"}
	for _, ph := range []string{"accept", "init-slb", "suspend-os", "skinit", "pal-exec", "cleanup", "extend-pcr", "resume-os"} {
		want = append(want, "start:"+ph, "end:"+ph)
	}
	want = append(want, "session-end")
	if len(o.events) != len(want) {
		t.Fatalf("events = %v", o.events)
	}
	for i := range want {
		if o.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, o.events[i], want[i])
		}
	}
	if o.badAttr != 0 {
		t.Errorf("%d charges attributed to a phase that was not open", o.badAttr)
	}
	// The expensive phases charged the clock under their own names.
	for _, ph := range []string{"skinit", "extend-pcr"} {
		if o.charges[ph] == 0 {
			t.Errorf("no charges attributed to %q", ph)
		}
	}
	// A phase's charges sum to at most its duration.
	for _, ph := range res.Phases {
		if o.charged[ph.Name] > ph.Duration {
			t.Errorf("phase %q charges %v exceed its %v duration", ph.Name, o.charged[ph.Name], ph.Duration)
		}
	}
	// A removed observer sees nothing further.
	before := len(o.events)
	p.RemoveObserver(o)
	if _, err := p.RunSession(helloPAL(), SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(o.events) != before {
		t.Error("removed observer still receiving events")
	}
}

func TestObserverSeesAbortedSessions(t *testing.T) {
	p := newPlatform(t)
	o := &orderObserver{charges: make(map[string]int)}
	p.AddObserver(o)
	if _, err := p.RunSession(helloPAL(), SessionOptions{FailPhase: "skinit"}); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("err = %v", err)
	}
	if len(o.events) == 0 || o.events[len(o.events)-1] != "session-end" {
		t.Fatalf("aborted session did not close its observer stream: %v", o.events)
	}
	// The aborted phase still gets its end event.
	found := false
	for _, e := range o.events {
		if e == "end:skinit" {
			found = true
		}
	}
	if !found {
		t.Error("no PhaseEnd for the faulted phase")
	}
	// Both the session and its faulted phase report the injected fault.
	if !errors.Is(o.sessionErr, ErrFaultInjected) {
		t.Errorf("SessionEnd error = %v, want the injected fault", o.sessionErr)
	}
	if !errors.Is(o.phaseErr["skinit"], ErrFaultInjected) {
		t.Errorf("PhaseEnd(skinit) error = %v, want the injected fault", o.phaseErr["skinit"])
	}
	if len(o.phaseErr) != 1 {
		t.Errorf("phase errors = %v, want only the faulted skinit", o.phaseErr)
	}
}

func TestOutputPageZeroedBetweenSessions(t *testing.T) {
	p := newPlatform(t)
	secret := &pal.Func{
		PALName: "secret-out",
		Binary:  pal.DescriptorCode("secret-out", "1.0", nil, nil),
		Fn: func(env *pal.Env, in []byte) ([]byte, error) {
			return []byte("SESSION-A-SECRET-OUTPUT"), nil
		},
	}
	resA, err := p.RunSession(secret, SessionOptions{})
	if err != nil || resA.PALError != nil {
		t.Fatalf("%v %v", err, resA.PALError)
	}
	// The output page genuinely holds session A's output after the session
	// (that is how the flicker-module hands it to the application)...
	outAddr := resA.SLBBase + uint32(slb.OutputsOffset)
	page, err := p.Machine.Mem.Read(outAddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(page, []byte("SESSION-A-SECRET-OUTPUT")) {
		t.Fatal("output page does not hold session A's output")
	}
	// ...so session B's PAL must not be able to read it: init-slb zeroes the
	// page before the next launch.
	var leaked []byte
	spy := &pal.Func{
		PALName: "output-spy",
		Binary:  pal.DescriptorCode("output-spy", "1.0", nil, nil),
		Fn: func(env *pal.Env, in []byte) ([]byte, error) {
			b, err := env.ReadMem(env.OutputAddr(), 64)
			leaked = b
			return []byte("ok"), err
		},
	}
	resB, err := p.RunSession(spy, SessionOptions{})
	if err != nil || resB.PALError != nil {
		t.Fatalf("%v %v", err, resB.PALError)
	}
	if !bytes.Equal(leaked, make([]byte, 64)) {
		t.Fatalf("session B read stale output page: %q", leaked)
	}
}

func TestMixedPipelineRace(t *testing.T) {
	// Classic and partitioned sessions racing from many goroutines must all
	// serialize on the platform's session lock (run under -race; the old
	// RunSessionConcurrent skipped the lock entirely).
	p := futurePlatform(t)
	const n = 6
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := p.RunSession(helloPAL(), SessionOptions{})
			if err == nil && res.PALError != nil {
				err = res.PALError
			}
			errs <- err
		}()
		go func() {
			res, err := p.RunSessionConcurrent(helloPAL(), SessionOptions{})
			if err == nil && res.PALError != nil {
				err = res.PALError
			}
			errs <- err
		}()
	}
	for i := 0; i < 2*n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("racing session failed: %v", err)
		}
	}
	snap := p.Metrics.Snapshot()
	if ok, aborted := snap.Sum("flicker_sessions_total", "ok"), snap.Sum("flicker_sessions_total", "aborted"); ok != 2*n || aborted != 0 {
		t.Fatalf("sessions = %v, aborted = %v", ok, aborted)
	}
	checkPlatformHealthy(t, p, "after mixed race")
}

func TestFaultDuringLargePALSession(t *testing.T) {
	// Faults after the preparatory code extended the DEV over extra PAL code
	// must clear that extension too.
	p := newPlatform(t)
	extra := bytes.Repeat([]byte{0xEE}, 3*slb.PageSize)
	lp := &largeTestPAL{
		Func: pal.Func{
			PALName: "big",
			Binary:  pal.DescriptorCode("big", "1.0", nil, nil),
			Fn:      func(env *pal.Env, in []byte) ([]byte, error) { return []byte("ok"), nil },
		},
		extra: extra,
	}
	_, err := p.RunSession(lp, SessionOptions{FailPhase: "cleanup"})
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("err = %v", err)
	}
	base, _ := p.Mod.AllocateSLB()
	if p.Machine.Mem.DEVProtected(base+uint32(slb.ExtraCodeOffset), len(extra)) {
		t.Error("DEV still covers extra PAL code after abort")
	}
	got, err := p.Machine.Mem.Read(base+uint32(slb.ExtraCodeOffset), len(extra))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(extra))) {
		t.Error("extra PAL code survived the abort")
	}
	checkPlatformHealthy(t, p, "after large-PAL abort")
	if res, err := p.RunSession(lp, SessionOptions{}); err != nil || res.PALError != nil {
		t.Fatalf("follow-up large session: %v %v", err, res.PALError)
	}
}

// largeTestPAL implements pal.LargePAL for the abort test.
type largeTestPAL struct {
	pal.Func
	extra []byte
}

func (l *largeTestPAL) ExtraCode() []byte { return l.extra }

func TestNoResumeDuplication(t *testing.T) {
	// The engine is the single place that resumes the OS: a session that
	// aborts at every later phase in sequence on one platform must leave it
	// healthy each time (double-resume would trip the flicker-module).
	p := newPlatform(t)
	for _, phase := range []string{"skinit", "pal-exec", "extend-pcr", "resume-os"} {
		if _, err := p.RunSession(helloPAL(), SessionOptions{FailPhase: phase}); !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("fault at %s: %v", phase, err)
		}
		checkPlatformHealthy(t, p, fmt.Sprintf("repeated abort at %s", phase))
	}
	if res, err := p.RunSession(helloPAL(), SessionOptions{}); err != nil || res.PALError != nil {
		t.Fatalf("platform dead after abort sequence: %v %v", err, res.PALError)
	}
}

// TestSessionOutputsSurviveNextSession guards the ownership rule: the
// input a PAL reads and the plaintext Env.Unseal returns are session
// scratch, erased before the OS resumes and reused by the next session, so
// an output the PAL returns from either must be copied into the result. A
// prefix of the input, the whole input (an echo PAL) and a piece of an
// Unseal plaintext all survive the next session, and so does a reply the
// PAL returns from its own memory.
func TestSessionOutputsSurviveNextSession(t *testing.T) {
	fn := func(name string, run func(env *pal.Env, in []byte) ([]byte, error)) pal.PAL {
		return &pal.Func{PALName: name, Binary: pal.DescriptorCode(name, "1.0", nil, nil), Fn: run}
	}
	own := []byte("the PAL's own reply")
	for _, tc := range []struct {
		name string
		pl   pal.PAL
		want func(in string) string
	}{
		{"prefix", fn("prefix", func(_ *pal.Env, in []byte) ([]byte, error) {
			return in[:8], nil
		}), func(in string) string { return in[:8] }},
		{"echo", fn("echo", func(_ *pal.Env, in []byte) ([]byte, error) {
			return in, nil
		}), func(in string) string { return in }},
		{"unsealed-piece", fn("unsealed-piece", func(env *pal.Env, in []byte) ([]byte, error) {
			blob, err := env.SealToSelf(in)
			if err != nil {
				return nil, err
			}
			plain, err := env.Unseal(blob)
			if err != nil {
				return nil, err
			}
			return plain[2:9], nil
		}), func(in string) string { return in[2:9] }},
		{"own-memory", fn("own-memory", func(*pal.Env, []byte) ([]byte, error) {
			return own, nil
		}), func(string) string { return string(own) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t)
			first, err := p.RunSession(tc.pl, SessionOptions{Input: []byte("session-1 input")})
			if err != nil || first.PALError != nil {
				t.Fatal(err, first.PALError)
			}
			second, err := p.RunSession(tc.pl, SessionOptions{Input: []byte("SESSION-2 INPUT")})
			if err != nil || second.PALError != nil {
				t.Fatal(err, second.PALError)
			}
			if got, want := string(first.Outputs), tc.want("session-1 input"); got != want {
				t.Errorf("session 1 outputs = %q after session 2, want %q", got, want)
			}
			if got, want := string(second.Outputs), tc.want("SESSION-2 INPUT"); got != want {
				t.Errorf("session 2 outputs = %q, want %q", got, want)
			}
			if tc.name == "own-memory" && &first.Outputs[0] != &own[0] {
				t.Error("an output in the PAL's own memory was copied")
			}
		})
	}
}

// TestPALDriverScrubbedBeforeResume checks that no session secret is
// readable once the OS resumes, after a completed session and after one
// aborted past pal-exec: the PAL's cached TPM driver holds no Seal
// plaintext, Unseal output or PRNG seed, and the input and Unseal
// plaintext the PAL was handed, stashed outside the session, read zero.
// The completed session's Outputs, an Unseal plaintext, are the result's
// own copy, and its attestation covers them.
func TestPALDriverScrubbedBeforeResume(t *testing.T) {
	for _, fail := range []string{"", "cleanup", "extend-pcr"} {
		t.Run("fail="+fail, func(t *testing.T) {
			p := newPlatform(t)
			var stashIn, stashPlain []byte
			stash := &pal.Func{
				PALName: "seal",
				Binary:  pal.DescriptorCode("seal", "1.0", nil, nil),
				Fn: func(env *pal.Env, in []byte) ([]byte, error) {
					blob, err := env.SealToSelf(in)
					if err != nil {
						return nil, err
					}
					stashIn = in
					stashPlain, err = env.Unseal(blob)
					return stashPlain, err
				},
			}
			res, err := p.RunSession(stash, SessionOptions{Input: []byte("driver secret"), FailPhase: fail})
			if fail == "" {
				if err != nil || res.PALError != nil || string(res.Outputs) != "driver secret" {
					t.Fatalf("seal session: %v", err)
				}
				if want := attest.ExpectedFinalPCR17(res.Image, []byte("driver secret"), res.Outputs, nil); res.PCR17Final != want {
					t.Errorf("PCR17Final = %x, want %x", res.PCR17Final, want)
				}
			}
			if fail != "" && !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("aborted session: err = %v, want injected fault", err)
			}
			if !p.scratch.palClient.Scrubbed() {
				t.Error("PAL TPM driver scratch not zeroed before the OS resumed")
			}
			for _, s := range []struct {
				name string
				b    []byte
			}{{"input", stashIn}, {"Unseal plaintext", stashPlain}} {
				if len(s.b) == 0 {
					t.Errorf("the PAL stashed no %s", s.name)
				} else if !bytes.Equal(s.b, make([]byte, len(s.b))) {
					t.Errorf("the %s the PAL was handed reads %q after the session", s.name, s.b)
				}
			}
		})
	}
}

// TestPipelinesFitPhaseSlots keeps maxPipelinePhases in step with the
// pipelines, so a session's timeline never outgrows its co-allocated slots.
func TestPipelinesFitPhaseSlots(t *testing.T) {
	for _, pipe := range []*sessionPipeline{&classicPipeline, &classicBatchPipeline, &partitionedPipeline} {
		if len(pipe.phases) > maxPipelinePhases {
			t.Errorf("pipeline %s has %d phases, maxPipelinePhases is %d", pipe.name, len(pipe.phases), maxPipelinePhases)
		}
	}
}
