package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"flicker/internal/attest"
	"flicker/internal/flickermod"
	"flicker/internal/hw/cpu"
	"flicker/internal/kernel"
	"flicker/internal/pal"
	"flicker/internal/palcrypto"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(PlatformConfig{Seed: "core-test"})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// helloPAL is the paper's Figure 5 example: ignore inputs, say hello.
func helloPAL() pal.PAL {
	return &pal.Func{
		PALName: "hello",
		Binary:  pal.DescriptorCode("hello", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return []byte("Hello, world"), nil
		},
	}
}

func TestHelloWorldSession(t *testing.T) {
	p := newPlatform(t)
	res, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PALError != nil {
		t.Fatalf("PAL error: %v", res.PALError)
	}
	if string(res.Outputs) != "Hello, world" {
		t.Fatalf("outputs = %q", res.Outputs)
	}
	// The Figure 2 timeline phases all appear, in order.
	want := []string{"accept", "init-slb", "suspend-os", "skinit", "pal-exec", "cleanup", "extend-pcr", "resume-os"}
	if len(res.Phases) != len(want) {
		t.Fatalf("phases = %d, want %d", len(res.Phases), len(want))
	}
	for i, ph := range res.Phases {
		if ph.Name != want[i] {
			t.Errorf("phase %d = %s, want %s", i, ph.Name, want[i])
		}
	}
	if res.Duration() <= 0 {
		t.Error("session consumed no simulated time")
	}
	// Outputs also appear at the sysfs entry.
	out, err := p.Kernel.SysfsRead(flickermod.SysfsOutputs)
	if err != nil || string(out) != "Hello, world" {
		t.Errorf("sysfs outputs = %q, %v", out, err)
	}
}

func TestSessionRestoresOSState(t *testing.T) {
	p := newPlatform(t)
	bsp := p.Machine.BSP()
	bsp.SetCR3(0xCAFE0000)
	bsp.SetGDTBase(0xBEEF0000)
	res, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bsp.InterruptsEnabled() {
		t.Error("interrupts not restored")
	}
	if !bsp.PagingEnabled() {
		t.Error("paging not restored")
	}
	if bsp.CR3() != 0xCAFE0000 {
		t.Errorf("CR3 = %#x", bsp.CR3())
	}
	if bsp.GDTBase() != 0xBEEF0000 {
		t.Errorf("GDT base = %#x", bsp.GDTBase())
	}
	if bsp.Ring() != 0 {
		t.Error("BSP not back in ring 0")
	}
	for _, c := range p.Machine.Cores()[1:] {
		if c.State() != cpu.CoreRunning {
			t.Errorf("AP %d not running after session", c.ID)
		}
	}
	if p.Machine.SecureSessionActive() || p.Machine.DebugDisabled() {
		t.Error("secure-session flags not cleared")
	}
	if p.Machine.Mem.DEVProtected(res.SLBBase, slb.MaxLen) {
		t.Error("DEV still set after session")
	}
	if p.Kernel.OnlineCoreCount() != len(p.Machine.Cores()) {
		t.Error("cores not re-onlined")
	}
}

func TestSessionWipesSecrets(t *testing.T) {
	p := newPlatform(t)
	var secretAddr uint32
	leaky := &pal.Func{
		PALName: "leaky",
		Binary:  pal.DescriptorCode("leaky", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			// Scribble a secret into the PAL's own memory (inside the SLB).
			secretAddr = env.SLBBase() + 32*1024
			return []byte("ok"), env.WriteMem(secretAddr, []byte("TOP-SECRET-KEY-MATERIAL"))
		},
	}
	if _, err := p.RunSession(leaky, SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := p.Machine.Mem.Read(secretAddr, 23)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 23)) {
		t.Fatalf("secret survived cleanup: %q", got)
	}
}

func TestInputsDeliveredThroughParameterPage(t *testing.T) {
	p := newPlatform(t)
	echo := &pal.Func{
		PALName: "echo",
		Binary:  pal.DescriptorCode("echo", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return append([]byte("echo:"), input...), nil
		},
	}
	res, err := p.RunSession(echo, SessionOptions{Input: []byte("marco")})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Outputs) != "echo:marco" {
		t.Fatalf("outputs = %q", res.Outputs)
	}
	if res.InputDigest != palcrypto.SHA1Sum([]byte("marco")) {
		t.Error("input digest wrong")
	}
	if res.OutputDigest != palcrypto.SHA1Sum([]byte("echo:marco")) {
		t.Error("output digest wrong")
	}
}

func TestOversizedInputRejected(t *testing.T) {
	p := newPlatform(t)
	_, err := p.RunSession(helloPAL(), SessionOptions{Input: make([]byte, 5000)})
	if err == nil || !strings.Contains(err.Error(), "4 KB") {
		t.Fatalf("err = %v", err)
	}
}

func TestPALErrorStillTearsDown(t *testing.T) {
	p := newPlatform(t)
	failing := &pal.Func{
		PALName: "failing",
		Binary:  pal.DescriptorCode("failing", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return nil, errors.New("application exploded")
		},
	}
	res, err := p.RunSession(failing, SessionOptions{})
	if err != nil {
		t.Fatalf("infrastructure error: %v", err)
	}
	if res.PALError == nil || !strings.Contains(res.PALError.Error(), "exploded") {
		t.Fatalf("PALError = %v", res.PALError)
	}
	if res.Outputs != nil {
		t.Error("failed PAL produced outputs")
	}
	if !p.Machine.BSP().InterruptsEnabled() || p.Machine.SecureSessionActive() {
		t.Error("teardown incomplete after PAL error")
	}
	// The platform still works for the next session.
	res2, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil || res2.PALError != nil {
		t.Fatalf("follow-up session: %v %v", err, res2.PALError)
	}
}

func TestPCR17Algebra(t *testing.T) {
	p := newPlatform(t)
	nonce := palcrypto.SHA1Sum([]byte("verifier-nonce"))
	res, err := p.RunSession(helloPAL(), SessionOptions{Input: []byte("in"), Nonce: &nonce})
	if err != nil {
		t.Fatal(err)
	}
	// Launch value: V0 = H(0 || H(P)).
	if res.PCR17AtLaunch != res.Image.ExpectedPCR17() {
		t.Error("PCR17 at launch != H(0 || H(P))")
	}
	// Final value matches the verifier's recomputation.
	want := attest.ExpectedFinalPCR17(res.Image, []byte("in"), res.Outputs, &nonce)
	if res.PCR17Final != want {
		t.Error("final PCR 17 != verifier recomputation")
	}
	// And the TPM agrees.
	if p.TPM.PCRValue(17) != want {
		t.Error("TPM PCR 17 != expected")
	}
	// Without the nonce the value differs (nonce is load-bearing).
	if res.PCR17Final == attest.ExpectedFinalPCR17(res.Image, []byte("in"), res.Outputs, nil) {
		t.Error("nonce did not affect final PCR 17")
	}
}

func TestSandboxBlocksKernelMemory(t *testing.T) {
	p := newPlatform(t)
	var sandboxErr, openErr error
	probe := func(name string) pal.PAL {
		return &pal.Func{
			PALName: name,
			Binary:  pal.DescriptorCode(name, "1.0", nil, nil),
			Fn: func(env *pal.Env, input []byte) ([]byte, error) {
				_, err := env.ReadMem(kernel.KernelTextBase, 64)
				if name == "sandboxed" {
					sandboxErr = err
				} else {
					openErr = err
				}
				return []byte("done"), nil
			},
		}
	}
	if _, err := p.RunSession(probe("sandboxed"), SessionOptions{Sandbox: true}); err != nil {
		t.Fatal(err)
	}
	var sf *pal.SegFault
	if !errors.As(sandboxErr, &sf) {
		t.Fatalf("sandboxed read of kernel text: %v, want SegFault", sandboxErr)
	}
	// Without OS Protection "a PAL can access the machine's entire
	// physical memory" (Section 4.2).
	if _, err := p.RunSession(probe("open"), SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if openErr != nil {
		t.Fatalf("unsandboxed read failed: %v", openErr)
	}
}

func TestSandboxRing3(t *testing.T) {
	p := newPlatform(t)
	var ringDuring cpu.Ring
	probe := &pal.Func{
		PALName: "ring-probe",
		Binary:  pal.DescriptorCode("ring-probe", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			ringDuring = 99 // sentinel; read from machine below
			return []byte("x"), nil
		},
	}
	// Capture ring during execution via a wrapper.
	wrapped := &pal.Func{
		PALName: "ring-probe",
		Binary:  probe.Binary,
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			ringDuring = p.Machine.BSP().Ring()
			return []byte("x"), nil
		},
	}
	if _, err := p.RunSession(wrapped, SessionOptions{Sandbox: true}); err != nil {
		t.Fatal(err)
	}
	if ringDuring != 3 {
		t.Fatalf("PAL ran in ring %d, want 3", ringDuring)
	}
	if p.Machine.BSP().Ring() != 0 {
		t.Fatal("core not returned to ring 0")
	}
}

func TestTwoStageSession(t *testing.T) {
	p := newPlatform(t)
	res, err := p.RunSession(helloPAL(), SessionOptions{TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Image.TwoStage() {
		t.Fatal("image not two-stage")
	}
	if res.PCR17AtLaunch != res.Image.ExpectedPCR17TwoStage() {
		t.Error("two-stage launch PCR mismatch")
	}
	want := attest.ExpectedFinalPCR17(res.Image, nil, res.Outputs, nil)
	if res.PCR17Final != want {
		t.Error("two-stage final PCR mismatch")
	}
	// The SKINIT phase must be much cheaper than a full-window launch:
	// only 4736 bytes go to the TPM.
	skinit := res.PhaseDuration("skinit")
	if got := p.Profile.SkinitCost(4736); skinit != got {
		t.Errorf("two-stage SKINIT = %v, want %v", skinit, got)
	}
}

func TestSysfsControlPath(t *testing.T) {
	p := newPlatform(t)
	im, err := p.RegisterPAL(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Kernel
	if err := k.SysfsWrite(flickermod.SysfsSLB, im.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := k.SysfsWrite(flickermod.SysfsInputs, []byte("ignored")); err != nil {
		t.Fatal(err)
	}
	if err := k.SysfsWrite(flickermod.SysfsControl, []byte{1}); err != nil {
		t.Fatal(err)
	}
	out, err := k.SysfsRead(flickermod.SysfsOutputs)
	if err != nil || string(out) != "Hello, world" {
		t.Fatalf("outputs = %q, %v", out, err)
	}
	// Unregistered SLB bytes are rejected.
	if err := k.SysfsWrite(flickermod.SysfsSLB, []byte("rogue slb")); err != nil {
		t.Fatal(err)
	}
	if err := k.SysfsWrite(flickermod.SysfsControl, []byte{1}); err == nil {
		t.Fatal("launch of unregistered SLB succeeded")
	}
}

// The outputs entry serves the output page in memory, as the OS reads it,
// never an alias of a session's result: a result cleared or run into again
// after the read changes neither the bytes a read returned nor what the
// entry serves, until the next session writes the page. The mirror PAL's
// outputs alias the result's input read-back, the storage reuse rewrites.
func TestSysfsOutputsSurviveResultReuse(t *testing.T) {
	p := newPlatform(t)
	read := func() string {
		t.Helper()
		out, err := p.Kernel.SysfsRead(flickermod.SysfsOutputs)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	var res SessionResult
	if err := p.RunSessionInto(&res, mirrorPAL(), SessionOptions{Input: []byte("first output")}); err != nil || res.PALError != nil {
		t.Fatalf("%v %v", err, res.PALError)
	}
	out, err := p.Kernel.SysfsRead(flickermod.SysfsOutputs)
	if err != nil || string(out) != "first output" {
		t.Fatalf("outputs = %q, %v", out, err)
	}
	res.Clear()
	if got := read(); got != "first output" || string(out) != "first output" {
		t.Fatalf("after the result was cleared: entry %q, earlier read %q", got, out)
	}
	if err := p.RunSessionInto(&res, mirrorPAL(), SessionOptions{Input: []byte("2nd")}); err != nil || res.PALError != nil {
		t.Fatalf("%v %v", err, res.PALError)
	}
	if got := read(); got != "2nd" || string(out) != "first output" {
		t.Fatalf("after the result was reused: entry %q, earlier read %q", got, out)
	}
}

func TestAttestationEndToEnd(t *testing.T) {
	p := newPlatform(t)
	ca, err := attest.NewPrivacyCA([]byte("test-ca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	tqd, err := attest.NewDaemon(p.OSTPM(), tpm.Digest{}, ca, "hp-dc5750")
	if err != nil {
		t.Fatal(err)
	}
	nonce := palcrypto.SHA1Sum([]byte("challenge-1"))
	res, err := p.RunSession(helloPAL(), SessionOptions{Input: []byte("q"), Nonce: &nonce})
	if err != nil {
		t.Fatal(err)
	}
	att, err := tqd.Quote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	// The verifier knows the PAL (hence the image), the inputs, the
	// returned outputs, and its own nonce.
	vimg, _ := BuildImage(helloPAL(), false)
	vimg.Patch(res.SLBBase)
	if err := attest.VerifySession(ca.PublicKey(), att, nonce, vimg, []byte("q"), res.Outputs); err != nil {
		t.Fatalf("valid attestation rejected: %v", err)
	}
	// Tampered output: rejected.
	if err := attest.VerifySession(ca.PublicKey(), att, nonce, vimg, []byte("q"), []byte("Hello, w0rld")); err == nil {
		t.Error("tampered output accepted")
	}
	// Tampered input: rejected.
	if err := attest.VerifySession(ca.PublicKey(), att, nonce, vimg, []byte("Q"), res.Outputs); err == nil {
		t.Error("tampered input accepted")
	}
	// Wrong nonce (replay): rejected.
	other := palcrypto.SHA1Sum([]byte("challenge-2"))
	if err := attest.VerifySession(ca.PublicKey(), att, other, vimg, []byte("q"), res.Outputs); err == nil {
		t.Error("replayed attestation accepted")
	}
	// Wrong PAL: rejected.
	evil := &pal.Func{PALName: "evil", Binary: pal.DescriptorCode("evil", "1.0", nil, nil), Fn: nil}
	eimg, _ := BuildImage(evil, false)
	eimg.Patch(res.SLBBase)
	if err := attest.VerifySession(ca.PublicKey(), att, nonce, eimg, []byte("q"), res.Outputs); err == nil {
		t.Error("attestation verified against the wrong PAL")
	}
}

func TestOSCannotForgeSessionPCR(t *testing.T) {
	// A compromised OS extends PCR 17 with values of its choosing and then
	// quotes — the verifier must reject, because PCR 17 cannot be put into
	// the post-SKINIT state by software.
	p := newPlatform(t)
	p.Kernel.Compromise()
	ca, _ := attest.NewPrivacyCA([]byte("ca"), 0)
	tqd, err := attest.NewDaemon(p.OSTPM(), tpm.Digest{}, ca, "victim")
	if err != nil {
		t.Fatal(err)
	}
	// The OS knows the PAL and tries to synthesize the extend chain on top
	// of the boot value (-1) instead of a real SKINIT.
	im, _ := BuildImage(helloPAL(), false)
	base, _ := p.Mod.AllocateSLB()
	im.Patch(base)
	osTPM := p.OSTPM()
	osTPM.Extend(17, im.Measurement())
	osTPM.Extend(17, palcrypto.SHA1Sum(nil))
	osTPM.Extend(17, palcrypto.SHA1Sum([]byte("Hello, world")))
	nonce := palcrypto.SHA1Sum([]byte("n"))
	osTPM.Extend(17, nonce)
	osTPM.Extend(17, slb.SessionTerminator)
	att, err := tqd.Quote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.VerifySession(ca.PublicKey(), att, nonce, im, nil, []byte("Hello, world")); err == nil {
		t.Fatal("forged session attestation verified")
	}
}

func TestMultipleSequentialSessions(t *testing.T) {
	p := newPlatform(t)
	for i := 0; i < 5; i++ {
		res, err := p.RunSession(helloPAL(), SessionOptions{})
		if err != nil || res.PALError != nil {
			t.Fatalf("session %d: %v %v", i, err, res.PALError)
		}
	}
}

func TestSessionTimingBreakdown(t *testing.T) {
	p := newPlatform(t)
	res, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// SKINIT phase equals the Table 2 model for this SLB size.
	if got, want := res.PhaseDuration("skinit"), p.Profile.SkinitCost(res.Image.MeasuredLen()); got != want {
		t.Errorf("skinit phase = %v, want %v", got, want)
	}
	// The extend phase covers 3 extends (input, output, terminator) plus a
	// PCR read.
	want := 3*p.Profile.TPMExtend + p.Profile.TPMPCRRead
	if got := res.PhaseDuration("extend-pcr"); got != want {
		t.Errorf("extend phase = %v, want %v", got, want)
	}
}

func TestConcurrentCallersAreSerialized(t *testing.T) {
	// Two goroutines racing RunSession must both succeed: the platform
	// queues them like concurrent ioctls against the one flicker-module.
	p := newPlatform(t)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, err := p.RunSession(helloPAL(), SessionOptions{})
			if err == nil && res.PALError != nil {
				err = res.PALError
			}
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("racing session failed: %v", err)
		}
	}
}

func TestOutputPageBoundary(t *testing.T) {
	p := newPlatform(t)
	mk := func(n int) pal.PAL {
		return &pal.Func{
			PALName: "boundary",
			Binary:  pal.DescriptorCode("boundary", "1.0", nil, nil),
			Fn: func(env *pal.Env, input []byte) ([]byte, error) {
				return bytes.Repeat([]byte{0x42}, n), nil
			},
		}
	}
	// Exactly at the 4 KB page limit (minus the length prefix): fine.
	res, err := p.RunSession(mk(slb.PageSize-4), SessionOptions{})
	if err != nil || res.PALError != nil {
		t.Fatalf("max output: %v %v", err, res.PALError)
	}
	if len(res.Outputs) != slb.PageSize-4 {
		t.Fatalf("outputs = %d bytes", len(res.Outputs))
	}
	// One byte over: PAL error, session still tears down.
	res, err = p.RunSession(mk(slb.PageSize-3), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PALError == nil {
		t.Fatal("oversized output accepted")
	}
	if !p.Machine.BSP().InterruptsEnabled() {
		t.Fatal("teardown incomplete")
	}
}

// TestPCR17CoversWhatCrossed pins the attestation to the output the OS
// received: a PAL output that does not cross the output page — one too
// large for it, or one returned together with an error — leaves Outputs
// nil, and PCR 17 covers the empty output, so a verifier recomputes it from
// what it holds and a quote leaks no hash of the withheld bytes.
func TestPCR17CoversWhatCrossed(t *testing.T) {
	secret := bytes.Repeat([]byte{0x42}, 16)
	for _, tc := range []struct {
		name string
		run  func(*pal.Env, []byte) ([]byte, error)
	}{
		{"oversized", func(*pal.Env, []byte) ([]byte, error) {
			return bytes.Repeat([]byte{0x42}, slb.PageSize), nil
		}},
		{"output-with-error", func(*pal.Env, []byte) ([]byte, error) {
			return secret, errors.New("refused after computing a reply")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t)
			in := []byte("request")
			pl := &pal.Func{PALName: tc.name, Binary: pal.DescriptorCode(tc.name, "1.0", nil, nil), Fn: tc.run}
			res, err := p.RunSession(pl, SessionOptions{Input: in})
			if err != nil || res.PALError == nil {
				t.Fatalf("want a PAL error: %v %v", err, res.PALError)
			}
			if res.Outputs != nil {
				t.Errorf("Outputs = %d bytes, want none", len(res.Outputs))
			}
			if want := attest.ExpectedFinalPCR17(res.Image, in, res.Outputs, nil); res.PCR17Final != want {
				t.Errorf("PCR17Final = %x, want %x: the chain over what crossed", res.PCR17Final, want)
			}
			if res.OutputDigest != palcrypto.SHA1Sum(nil) {
				t.Errorf("OutputDigest = %x, want the digest of the empty output", res.OutputDigest)
			}
		})
	}
}
