package core

import (
	"testing"

	"flicker/internal/hw/cpu"
	"flicker/internal/pal"
)

// checkSessionStateZero fails unless the platform keeps nothing of the last
// session in its session state: the launch record is the zero record and
// the per-session references are dropped.
func checkSessionStateZero(t *testing.T, p *Platform) {
	t.Helper()
	st := &p.scratch.st
	if st.ll != (cpu.LateLaunch{}) {
		t.Fatalf("launch record kept after the session: %+v", st.ll)
	}
	if st.p != nil || st.pl != nil || st.res != nil || st.im != nil || st.saved != nil ||
		st.env != nil || st.palOut != nil || st.palErr != nil || st.obs != nil || st.slbBase != 0 {
		t.Fatal("session state kept a reference to the finished session")
	}
	if p.Machine.SecureSessionActive() {
		t.Fatal("a late launch is still active after the session")
	}
}

// The engine's launch record is zeroed when a session ends: after a
// successful session, and after a session aborted at each of its phases,
// the launched ones included.
func TestLaunchRecordZeroedAfterSession(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.RunSession(helloPAL(), SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	checkSessionStateZero(t, p)
	for _, ph := range classicPipeline.phases {
		if _, err := p.RunSession(helloPAL(), SessionOptions{FailPhase: ph.name}); err == nil {
			t.Fatalf("FailPhase %q: session succeeded", ph.name)
		}
		checkSessionStateZero(t, p)
	}
	// The platform still runs sessions afterwards.
	if res, err := p.RunSession(helloPAL(), SessionOptions{}); err != nil || res.PALError != nil {
		t.Fatalf("session after the aborts: %v %v", err, res.PALError)
	}
	checkSessionStateZero(t, p)
}

// A copy of a finished session's launch record cannot end a later session's
// launch: End on it fails while the later session runs, and that session
// completes with the same attestation values as an undisturbed one.
func TestStaleLaunchRecordCannotEndLaterSession(t *testing.T) {
	p := newPlatform(t)
	var stale cpu.LateLaunch
	first, err := p.RunSession(helloPAL(), SessionOptions{Injector: func(phase string) error {
		if phase == "pal-exec" {
			stale = p.scratch.st.ll
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Measurement != first.Measurement {
		t.Fatal("the copied record is not the first session's launch")
	}
	var endErr error
	later, err := p.RunSession(helloPAL(), SessionOptions{Injector: func(phase string) error {
		if phase == "pal-exec" {
			endErr = stale.End()
			if !p.Machine.SecureSessionActive() || !p.scratch.st.ll.Active() {
				t.Error("End on a stale record stopped the running launch")
			}
		}
		return nil
	}})
	if err != nil || later.PALError != nil {
		t.Fatalf("later session: %v %v", err, later.PALError)
	}
	if endErr == nil {
		t.Fatal("End on a finished session's record accepted")
	}
	if later.PCR17AtLaunch != first.PCR17AtLaunch || later.PCR17Final != first.PCR17Final {
		t.Fatal("the later session attests differently from the first")
	}
}

// A SessionResult owns its launch values: the platform's next session, of
// another PAL, reuses the launch record but leaves the earlier result's
// Measurement and PCR17AtLaunch as they were.
func TestSessionResultKeepsLaunchValues(t *testing.T) {
	p := newPlatform(t)
	a, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meas, pcr := a.Measurement, a.PCR17AtLaunch
	other := &pal.Func{
		PALName: "other",
		Binary:  pal.DescriptorCode("other", "1.0", nil, nil),
		Fn:      func(*pal.Env, []byte) ([]byte, error) { return []byte("b"), nil },
	}
	b, err := p.RunSession(other, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Measurement == meas || b.PCR17AtLaunch == pcr {
		t.Fatal("the two PALs measure alike; the check below would prove nothing")
	}
	if a.Measurement != meas || a.PCR17AtLaunch != pcr {
		t.Fatal("session B changed session A's launch values")
	}
	if a.Measurement != a.Image.Measurement() || a.PCR17AtLaunch != a.Image.ExpectedPCR17() {
		t.Fatal("session A's launch values are not its image's")
	}
}
