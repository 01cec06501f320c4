package pal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"flicker/internal/hw/cpu"
	"flicker/internal/hw/tis"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// envRig assembles a minimal machine + TPM and returns a ready Env plus its
// parts, simulating what the SLB Core does after SKINIT.
type envRig struct {
	clock   *simtime.Clock
	profile *simtime.Profile
	machine *cpu.Machine
	tpm     *tpm.TPM
	slbBase uint32
}

func newEnvRig(t *testing.T) *envRig {
	t.Helper()
	clock := simtime.New()
	prof := simtime.ProfileBroadcom()
	tp, err := tpm.New(clock, prof, tpm.Options{Seed: []byte("env-test")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.NewMachine(clock, prof, tis.NewBus(tp), cpu.Config{Cores: 1, MemSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return &envRig{clock: clock, profile: prof, machine: m, tpm: tp, slbBase: 0x200000}
}

func (r *envRig) env(t *testing.T, cfg EnvConfig) *Env {
	t.Helper()
	cfg.Clock = r.clock
	cfg.Profile = r.profile
	cfg.Mem = r.machine.Mem
	cfg.Core = r.machine.BSP()
	if cfg.TPM == nil {
		cfg.TPM = tpm.NewClient(r.machine.TPMBus, tis.Locality2, []byte("env"))
	}
	cfg.SLBBase = r.slbBase
	cfg.SLBLen = 8192
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(EnvConfig{}); err == nil {
		t.Fatal("incomplete config accepted")
	}
}

func TestEnvRNGSeededFromTPM(t *testing.T) {
	r := newEnvRig(t)
	before := r.clock.Now()
	e := r.env(t, EnvConfig{})
	// NewEnv issued a GetRandom (1.3 ms on the Broadcom profile).
	if got := r.clock.Now() - before; got != r.profile.TPMGetRandom {
		t.Errorf("env setup charged %v, want %v", got, r.profile.TPMGetRandom)
	}
	a := e.Random(16)
	b := e.Random(16)
	if bytes.Equal(a, b) {
		t.Error("successive Random draws identical")
	}
	if e.RNG() == nil {
		t.Error("RNG not exposed")
	}
	// Explicit seed bypasses the TPM call and is deterministic.
	e2 := r.env(t, EnvConfig{RNGSeed: []byte("fixed")})
	e3 := r.env(t, EnvConfig{RNGSeed: []byte("fixed")})
	if !bytes.Equal(e2.Random(8), e3.Random(8)) {
		t.Error("seeded RNGs diverge")
	}
}

func TestEnvMemoryAndSandbox(t *testing.T) {
	r := newEnvRig(t)
	open := r.env(t, EnvConfig{})
	if err := open.WriteMem(0x1000, []byte("anywhere")); err != nil {
		t.Fatalf("unsandboxed write: %v", err)
	}
	got, err := open.ReadMem(0x1000, 8)
	if err != nil || !bytes.Equal(got, []byte("anywhere")) {
		t.Fatalf("read back: %q %v", got, err)
	}
	if open.Sandboxed() {
		t.Error("Sandboxed() true without OS Protection")
	}

	sbx := r.env(t, EnvConfig{Sandbox: true})
	if !sbx.Sandboxed() {
		t.Fatal("sandbox not active")
	}
	if r.machine.BSP().Ring() != 3 {
		t.Error("PAL not in ring 3")
	}
	var sf *SegFault
	if _, err := sbx.ReadMem(0x1000, 8); !errors.As(err, &sf) {
		t.Errorf("out-of-bounds read: %v", err)
	}
	if err := sbx.WriteMem(r.slbBase-4, make([]byte, 8)); !errors.As(err, &sf) {
		t.Errorf("straddling write: %v", err)
	}
	// Inside the PAL's region (including the parameter pages): allowed.
	if err := sbx.WriteMem(sbx.InputAddr(), []byte("in")); err != nil {
		t.Errorf("parameter page write: %v", err)
	}
	if err := sbx.WriteMem(sbx.OutputAddr(), []byte("out")); err != nil {
		t.Errorf("output page write: %v", err)
	}
	sbx.ExitSandbox()
	if r.machine.BSP().Ring() != 0 {
		t.Error("ExitSandbox did not restore ring 0")
	}
	if sf.Error() == "" {
		t.Error("SegFault has no message")
	}
}

func TestEnvHashCharges(t *testing.T) {
	r := newEnvRig(t)
	e := r.env(t, EnvConfig{})
	data := bytes.Repeat([]byte{0x5A}, 10000)
	if err := e.WriteMem(0x4000, data); err != nil {
		t.Fatal(err)
	}
	before := r.clock.Now()
	d, err := e.HashMem(0x4000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if d != palcrypto.SHA1Sum(data) {
		t.Error("HashMem digest wrong")
	}
	if got := r.clock.Now() - before; got != r.profile.CPUHashCost(len(data)) {
		t.Errorf("HashMem charged %v", got)
	}
	if e.HashBytes(data) != palcrypto.SHA1Sum(data) {
		t.Error("HashBytes digest wrong")
	}
	if _, err := e.HashMem(uint32(r.machine.Mem.Size()), 16); err == nil {
		t.Error("out-of-range HashMem accepted")
	}
}

func TestEnvSealUnsealAndPCR(t *testing.T) {
	r := newEnvRig(t)
	// Put PCR 17 into a launch state first.
	if _, err := tpm.RunHashSequence(r.machine.TPMBus, new(tpm.L4Scratch), []byte("env pal")); err != nil {
		t.Fatal(err)
	}
	e := r.env(t, EnvConfig{})
	blob, err := e.SealToSelf([]byte("pal secret"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Unseal(blob)
	if err != nil || !bytes.Equal(got, []byte("pal secret")) {
		t.Fatalf("unseal: %q %v", got, err)
	}
	// Seal to another PAL's identity: our own unseal fails.
	other := tpm.ExtendDigest(tpm.Digest{}, palcrypto.SHA1Sum([]byte("other pal")))
	blob2, err := e.SealToPCR17([]byte("for other"), &other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Unseal(blob2); err == nil {
		t.Fatal("unsealed a blob bound to another PAL")
	}
	// Extend + read.
	v0, err := e.PCR17()
	if err != nil {
		t.Fatal(err)
	}
	m := palcrypto.SHA1Sum([]byte("result"))
	if err := e.ExtendPCR17(m); err != nil {
		t.Fatal(err)
	}
	v1, _ := e.PCR17()
	if v1 != tpm.ExtendDigest(v0, m) {
		t.Fatal("ExtendPCR17 algebra wrong")
	}
}

// TestEnvUnsealScratch pins the lifetime of what Env.Unseal returns: every
// plaintext of a session stays valid, unmoved and unoverwritten, as the
// scratch grows past it, ScratchOverlaps recognizes each, and ScrubScratch
// zeroes them all.
func TestEnvUnsealScratch(t *testing.T) {
	r := newEnvRig(t)
	if _, err := tpm.RunHashSequence(r.machine.TPMBus, new(tpm.L4Scratch), []byte("env pal")); err != nil {
		t.Fatal(err)
	}
	e := r.env(t, EnvConfig{})
	var plains, want [][]byte
	for i, n := range []int{8, 64, 8, 512} {
		secret := bytes.Repeat([]byte{byte('a' + i)}, n)
		blob, err := e.SealToSelf(secret)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Unseal(blob)
		if err != nil {
			t.Fatal(err)
		}
		plains, want = append(plains, got), append(want, secret)
	}
	for i, got := range plains {
		if !bytes.Equal(got, want[i]) {
			t.Errorf("plaintext %d = %q after later Unseals, want %q", i, got, want[i])
		}
		if !e.ScratchOverlaps(got[len(got)-1:]) {
			t.Errorf("plaintext %d not recognized as session scratch", i)
		}
	}
	if e.ScratchOverlaps(want[0]) || e.ScratchOverlaps(nil) {
		t.Error("memory outside the scratch recognized as session scratch")
	}
	e.ScrubScratch()
	for i, got := range plains {
		if !bytes.Equal(got, make([]byte, len(got))) {
			t.Errorf("plaintext %d = %q after ScrubScratch", i, got)
		}
	}
}

func TestEnvOutputsAndAddresses(t *testing.T) {
	r := newEnvRig(t)
	e := r.env(t, EnvConfig{})
	e.SetOutput([]byte("result bytes"))
	if !bytes.Equal(e.Output(), []byte("result bytes")) {
		t.Error("staged output lost")
	}
	if e.OutputAddr() != r.slbBase+uint32(slb.OutputsOffset) {
		t.Error("OutputAddr wrong")
	}
	if e.InputAddr() != r.slbBase+uint32(slb.InputsOffset) {
		t.Error("InputAddr wrong")
	}
	if e.SLBBase() != r.slbBase {
		t.Error("SLBBase wrong")
	}
	if e.Profile() != r.profile {
		t.Error("Profile not exposed")
	}
}

func TestEnvTimerDirect(t *testing.T) {
	r := newEnvRig(t)
	e := r.env(t, EnvConfig{MaxPALTime: 10 * time.Millisecond})
	if e.TimedOut() {
		t.Fatal("fresh env already timed out")
	}
	e.ChargeCPU(simtime.Charge{Duration: 20 * time.Millisecond, Label: "spin"})
	if !e.TimedOut() {
		t.Fatal("TimedOut false after overrun")
	}
	if _, err := e.HashMem(r.slbBase, 4); !errors.Is(err, ErrPALTimeout) {
		t.Errorf("HashMem after timeout: %v", err)
	}
	if _, err := e.SealToSelf([]byte("x")); !errors.Is(err, ErrPALTimeout) {
		t.Errorf("Seal after timeout: %v", err)
	}
	if _, err := e.Unseal([]byte("x")); !errors.Is(err, ErrPALTimeout) {
		t.Errorf("Unseal after timeout: %v", err)
	}
	if err := e.StashContext([]byte("x")); !errors.Is(err, ErrPALTimeout) {
		t.Errorf("Stash after timeout: %v", err)
	}
	if _, err := e.FetchContext(); !errors.Is(err, ErrPALTimeout) {
		t.Errorf("Fetch after timeout: %v", err)
	}
}

func TestEnvContextStoreGates(t *testing.T) {
	r := newEnvRig(t)
	// No machine wired: ErrNoHWContext.
	e := r.env(t, EnvConfig{})
	if err := e.StashContext([]byte("x")); !errors.Is(err, cpu.ErrNoHWContext) {
		t.Errorf("stash without machine: %v", err)
	}
	if _, err := e.FetchContext(); !errors.Is(err, cpu.ErrNoHWContext) {
		t.Errorf("fetch without machine: %v", err)
	}
	if e.HWContextAvailable() {
		t.Error("HW context claimed without a machine")
	}
	// Machine wired but 2008-era profile: still unavailable.
	e2 := r.env(t, EnvConfig{Machine: r.machine})
	if e2.HWContextAvailable() {
		t.Error("HW context claimed on Broadcom profile")
	}
}

func TestSecureChannelModuleDirect(t *testing.T) {
	r := newEnvRig(t)
	if _, err := tpm.RunHashSequence(r.machine.TPMBus, new(tpm.L4Scratch), []byte("channel pal")); err != nil {
		t.Fatal(err)
	}
	e := r.env(t, EnvConfig{RNGSeed: []byte("chan")})
	kp, err := GenerateChannelKeypair(e, 512)
	if err != nil {
		t.Fatal(err)
	}
	// A remote party encrypts under the public key...
	ct, err := palcrypto.EncryptPKCS1(palcrypto.NewPRNG([]byte("remote")), kp.Public, []byte("the password"))
	if err != nil {
		t.Fatal(err)
	}
	// ...and a later session of the same PAL opens the channel.
	pt, err := OpenChannel(e, kp.SealedPrivate, ct)
	if err != nil || !bytes.Equal(pt, []byte("the password")) {
		t.Fatalf("OpenChannel: %q %v", pt, err)
	}
	// RecoverChannelKey yields a signing-capable key.
	key, err := RecoverChannelKey(e, kp.SealedPrivate)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := palcrypto.SignPKCS1SHA1(key, []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := palcrypto.VerifyPKCS1SHA1(kp.Public, []byte("msg"), sig); err != nil {
		t.Fatal("recovered key does not match public half")
	}
	// Corrupt sealed blob: all paths fail cleanly.
	bad := append([]byte(nil), kp.SealedPrivate...)
	bad[len(bad)/2] ^= 1
	if _, err := OpenChannel(e, bad, ct); err == nil {
		t.Error("OpenChannel accepted corrupt sdata")
	}
	if _, err := RecoverChannelKey(e, bad); err == nil {
		t.Error("RecoverChannelKey accepted corrupt sdata")
	}
	// Garbage ciphertext: uniform failure.
	if _, err := OpenChannel(e, kp.SealedPrivate, []byte("junk")); err == nil {
		t.Error("OpenChannel accepted garbage ciphertext")
	}
}
