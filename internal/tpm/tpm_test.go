package tpm

import (
	"bytes"
	"testing"

	"flicker/internal/hw/tis"
	"flicker/internal/metrics"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
)

// rig is a TPM plus its bus, OS-level client and the clock, the standard
// fixture for these tests.
type rig struct {
	tpm   *TPM
	bus   *tis.Bus
	clock *simtime.Clock
	os    *Client // locality 0: the untrusted OS's driver
	pal   *Client // locality 2: the PAL's driver
	hw    *Client // locality 4: CPU hardware traffic
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clock := simtime.New()
	tp, err := New(clock, simtime.ProfileBroadcom(), Options{Seed: []byte("test-tpm")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bus := tis.NewBus(tp)
	return &rig{
		tpm:   tp,
		bus:   bus,
		clock: clock,
		os:    NewClient(bus, tis.Locality0, []byte("os-nonces")),
		pal:   NewClient(bus, tis.Locality2, []byte("pal-nonces")),
		hw:    NewClient(bus, tis.Locality4, []byte("hw-nonces")),
	}
}

func minusOne() Digest {
	var d Digest
	for i := range d {
		d[i] = 0xFF
	}
	return d
}

func TestBootPCRValues(t *testing.T) {
	r := newRig(t)
	for i := 0; i < FirstDynamicPCR; i++ {
		if r.tpm.PCRValue(i) != (Digest{}) {
			t.Errorf("static PCR %d not zero at boot", i)
		}
	}
	// "A reboot sets the value of PCRs 17-23 to -1, so that a remote
	// verifier can distinguish between a reboot and a dynamic reset."
	for i := FirstDynamicPCR; i <= LastDynamicPCR; i++ {
		if r.tpm.PCRValue(i) != minusOne() {
			t.Errorf("dynamic PCR %d not -1 at boot", i)
		}
	}
}

func TestExtendSemantics(t *testing.T) {
	r := newRig(t)
	m := palcrypto.SHA1Sum([]byte("a.out"))
	got, err := r.os.Extend(10, m)
	if err != nil {
		t.Fatal(err)
	}
	want := ExtendDigest(Digest{}, m)
	if got != want {
		t.Fatalf("extend result mismatch")
	}
	// Extend is order-sensitive and cumulative.
	m2 := palcrypto.SHA1Sum([]byte("config"))
	got2, _ := r.os.Extend(10, m2)
	if got2 != ExtendDigest(want, m2) {
		t.Fatal("second extend mismatch")
	}
	if got2 == ExtendDigest(ExtendDigest(Digest{}, m2), m) {
		t.Fatal("extend appears order-insensitive")
	}
}

func TestExtendInvalidIndex(t *testing.T) {
	r := newRig(t)
	if _, err := r.os.Extend(NumPCRs, Digest{}); !IsCode(err, RCBadIndex) {
		t.Fatalf("err = %v, want bad index", err)
	}
}

func TestSoftwareCannotResetPCR17(t *testing.T) {
	r := newRig(t)
	// Neither the OS (locality 0) nor the PAL (locality 2) may reset PCR 17.
	for _, c := range []*Client{r.os, r.pal} {
		err := c.PCRReset(SelectPCRs(17))
		if err == nil {
			t.Fatalf("locality %d reset PCR 17", c.loc)
		}
	}
	// Even locality 4 cannot use the *software* reset for PCR 17; the only
	// path is the SKINIT hash sequence.
	if err := r.hw.PCRReset(SelectPCRs(17)); !IsCode(err, RCBadIndex) {
		t.Fatalf("locality-4 software reset of PCR 17: err = %v, want bad index", err)
	}
}

func TestSoftwareResetPCR20Locality(t *testing.T) {
	r := newRig(t)
	r.os.Extend(20, palcrypto.SHA1Sum([]byte("x")))
	// Locality 0 may not reset PCR 20...
	if err := r.os.PCRReset(SelectPCRs(20)); !IsCode(err, RCBadLocality) {
		t.Fatalf("locality-0 reset: %v, want bad locality", err)
	}
	// ...locality 2 may.
	if err := r.pal.PCRReset(SelectPCRs(20)); err != nil {
		t.Fatalf("locality-2 reset: %v", err)
	}
	if r.tpm.PCRValue(20) != (Digest{}) {
		t.Fatal("PCR 20 not zero after reset")
	}
}

func TestDispatchErrorCountsMetricOnce(t *testing.T) {
	r := newRig(t)
	reg := metrics.NewRegistry()
	log := metrics.NewEventLog(0)
	r.tpm.Instrument(reg, log)

	// Locality 0 may not reset PCR 20: dispatch returns RCBadLocality (0x29).
	if err := r.os.PCRReset(SelectPCRs(20)); !IsCode(err, RCBadLocality) {
		t.Fatalf("err = %v, want bad locality", err)
	}
	commands := reg.Counter("flicker_tpm_commands_total", "", "ordinal", "code")
	if got := commands.With("pcrreset", "41").Value(); got != 1 {
		t.Errorf("pcrreset/41 counter = %v, want exactly 1", got)
	}
	if got := commands.With("pcrreset", "0").Value(); got != 0 {
		t.Errorf("pcrreset/0 counter = %v, want 0", got)
	}
	// The failed dispatch still consumed simulated time: one latency sample.
	latency := reg.Histogram("flicker_tpm_command_seconds", "", nil, "ordinal")
	if got := latency.With("pcrreset").Count(); got != 1 {
		t.Errorf("pcrreset latency samples = %d, want 1", got)
	}
	if faults := log.EventsByKind(metrics.EventLocalityFault); len(faults) != 1 {
		t.Errorf("locality-fault events = %d, want 1", len(faults))
	}

	// A successful command lands in the rc=0 series of its own ordinal.
	if _, err := r.os.Extend(10, palcrypto.SHA1Sum([]byte("m"))); err != nil {
		t.Fatal(err)
	}
	if got := commands.With("extend", "0").Value(); got != 1 {
		t.Errorf("extend/0 counter = %v, want 1", got)
	}
}

func TestHashStartRecordsPCR17ResetEvent(t *testing.T) {
	r := newRig(t)
	reg := metrics.NewRegistry()
	log := metrics.NewEventLog(0)
	r.tpm.Instrument(reg, log)
	runHashSequence(t, r, []byte("slb bytes"))
	if resets := log.EventsByKind(metrics.EventPCR17Reset); len(resets) != 1 {
		t.Fatalf("pcr17-reset events = %d, want 1", len(resets))
	}
}

// runHashSequence simulates the SKINIT-side locality-4 traffic for an SLB.
func runHashSequence(t *testing.T, r *rig, slb []byte) {
	t.Helper()
	for _, step := range [][2]interface{}{
		{OrdHashStart, []byte(nil)},
		{OrdHashData, slb},
		{OrdHashEnd, []byte(nil)},
	} {
		ord := step[0].(uint32)
		body := step[1].([]byte)
		resp, err := r.bus.SubmitAt(tis.Locality4, marshalCommand(tagRQUCommand, ord, body))
		if err != nil {
			t.Fatalf("hash sequence submit: %v", err)
		}
		if _, rc, _, _ := parseFrame(resp); rc != RCSuccess {
			t.Fatalf("hash sequence ordinal %#x rc=%#x", ord, rc)
		}
	}
}

func TestHashSequenceResetsAndExtends(t *testing.T) {
	r := newRig(t)
	slb := bytes.Repeat([]byte{0xCD}, 4096)
	runHashSequence(t, r, slb)

	// PCR 17 = SHA1(0^20 || SHA1(SLB)): V = H(0x00^20 || H(P)).
	want := ExtendDigest(Digest{}, palcrypto.SHA1Sum(slb))
	if r.tpm.PCRValue(17) != want {
		t.Fatal("PCR 17 != H(0 || H(SLB)) after hash sequence")
	}
	// Other dynamic PCRs were reset to zero (not -1).
	for i := 18; i <= LastDynamicPCR; i++ {
		if r.tpm.PCRValue(i) != (Digest{}) {
			t.Errorf("PCR %d not zero after dynamic reset", i)
		}
	}
}

func TestHashSequenceRejectedFromSoftwareLocalities(t *testing.T) {
	r := newRig(t)
	for _, loc := range []tis.Locality{tis.Locality0, tis.Locality1, tis.Locality2, tis.Locality3} {
		resp, err := r.bus.SubmitAt(loc, marshalCommand(tagRQUCommand, OrdHashStart, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, rc, _, _ := parseFrame(resp); rc != RCBadLocality {
			t.Errorf("HashStart at locality %d: rc=%#x, want bad locality", loc, rc)
		}
	}
	// Forged PCR 17 attempt: software extends cannot reach the post-SKINIT
	// value because they cannot first reset PCR 17 from -1.
	slb := []byte("target PAL")
	m := palcrypto.SHA1Sum(slb)
	got, _ := r.os.Extend(17, m)
	if got == ExtendDigest(Digest{}, m) {
		t.Fatal("software forged the SKINIT PCR-17 value")
	}
}

func TestHashDataWithoutStartFails(t *testing.T) {
	r := newRig(t)
	resp, _ := r.bus.SubmitAt(tis.Locality4, marshalCommand(tagRQUCommand, OrdHashData, []byte("x")))
	if _, rc, _, _ := parseFrame(resp); rc != RCFail {
		t.Fatalf("HashData without HashStart: rc=%#x", rc)
	}
	resp, _ = r.bus.SubmitAt(tis.Locality4, marshalCommand(tagRQUCommand, OrdHashEnd, nil))
	if _, rc, _, _ := parseFrame(resp); rc != RCFail {
		t.Fatalf("HashEnd without HashStart: rc=%#x", rc)
	}
}

func TestRebootRestoresMinusOne(t *testing.T) {
	r := newRig(t)
	runHashSequence(t, r, []byte("slb"))
	if r.tpm.PCRValue(17) == minusOne() {
		t.Fatal("sanity: PCR 17 should differ from -1 after SKINIT")
	}
	r.tpm.Reboot()
	if err := r.os.Startup(); err != nil {
		t.Fatalf("startup after reboot: %v", err)
	}
	if r.tpm.PCRValue(17) != minusOne() {
		t.Fatal("PCR 17 != -1 after reboot")
	}
	if r.tpm.BootCount() != 2 {
		t.Fatalf("boot count = %d, want 2", r.tpm.BootCount())
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	r := newRig(t)
	data := []byte("the CA's private signing key")
	blob, err := r.os.Seal(Digest{}, PCRSelection{}, Digest{}, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.os.Unseal(Digest{}, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("unsealed data mismatch")
	}
}

func TestSealBindsToPCRState(t *testing.T) {
	r := newRig(t)
	// Seal to the post-SKINIT PCR-17 value of a specific PAL, as PALs do:
	// "P specifies that PCR 17 must have the value V = H(0x0020 || H(P'))".
	pal := []byte("authorized PAL image")
	v := ExtendDigest(Digest{}, palcrypto.SHA1Sum(pal))
	sel := SelectPCRs(17)
	dar := CompositeHash(sel, map[int]Digest{17: v})

	blob, err := r.os.Seal(Digest{}, sel, dar, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	// Unseal now (PCR 17 = -1): must fail with the wrong-PCR code.
	if _, err := r.os.Unseal(Digest{}, blob); !IsCode(err, RCWrongPCRVal) {
		t.Fatalf("unseal before SKINIT: %v, want wrong PCR value", err)
	}
	// After the right PAL launches, unseal succeeds.
	runHashSequence(t, r, pal)
	got, err := r.pal.Unseal(Digest{}, blob)
	if err != nil {
		t.Fatalf("unseal after correct SKINIT: %v", err)
	}
	if !bytes.Equal(got, []byte("secret")) {
		t.Fatal("wrong plaintext")
	}
	// A different PAL cannot unseal.
	r.tpm.Reboot()
	if err := r.os.Startup(); err != nil {
		t.Fatalf("startup after reboot: %v", err)
	}
	runHashSequence(t, r, []byte("malicious PAL image"))
	if _, err := r.pal.Unseal(Digest{}, blob); !IsCode(err, RCWrongPCRVal) {
		t.Fatalf("unseal under wrong PAL: %v, want wrong PCR value", err)
	}
}

func TestCapExtendRevokesAccess(t *testing.T) {
	// "it revokes access to any secrets kept in the TPM's sealed storage
	// which may have been available during PAL execution" (Section 4.4.1).
	r := newRig(t)
	pal := []byte("pal with secrets")
	v := ExtendDigest(Digest{}, palcrypto.SHA1Sum(pal))
	sel := SelectPCRs(17)
	dar := CompositeHash(sel, map[int]Digest{17: v})
	blob, _ := r.os.Seal(Digest{}, sel, dar, []byte("s3kr1t"))

	runHashSequence(t, r, pal)
	if _, err := r.pal.Unseal(Digest{}, blob); err != nil {
		t.Fatalf("in-session unseal failed: %v", err)
	}
	// SLB Core extends PCR 17 with a fixed public constant at exit.
	r.pal.Extend(17, palcrypto.SHA1Sum([]byte("flicker-session-terminator")))
	if _, err := r.os.Unseal(Digest{}, blob); !IsCode(err, RCWrongPCRVal) {
		t.Fatalf("post-cap unseal: %v, want wrong PCR value", err)
	}
}

func TestUnsealRejectsTamperedBlob(t *testing.T) {
	r := newRig(t)
	blob, _ := r.os.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("data"))
	for _, pos := range []int{0, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x01
		if _, err := r.os.Unseal(Digest{}, bad); err == nil {
			t.Errorf("tampered blob (byte %d) unsealed", pos)
		}
	}
	if _, err := r.os.Unseal(Digest{}, []byte("not a blob")); !IsCode(err, RCNotSealedBlob) {
		t.Errorf("garbage blob: %v", err)
	}
}

func TestUnsealRejectsForeignBlob(t *testing.T) {
	// A blob sealed by a different TPM must not unseal here (tpmProof).
	r1 := newRig(t)
	clock := simtime.New()
	tp2, _ := New(clock, simtime.ProfileBroadcom(), Options{Seed: []byte("other-tpm")})
	bus2 := tis.NewBus(tp2)
	os2 := NewClient(bus2, tis.Locality0, []byte("n"))
	blob, err := os2.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("foreign"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.os.Unseal(Digest{}, blob); err == nil {
		t.Fatal("foreign blob unsealed")
	}
}

func TestSealWrongSRKAuthFails(t *testing.T) {
	r := newRig(t)
	var bad Digest
	bad[0] = 1
	if _, err := r.os.Seal(bad, PCRSelection{}, Digest{}, []byte("x")); !IsCode(err, RCAuthFail) {
		t.Fatalf("seal with wrong SRK auth: %v, want auth fail", err)
	}
}

func TestQuoteVerifies(t *testing.T) {
	r := newRig(t)
	aik, aikPub, _, err := r.os.MakeIdentity(Digest{})
	if err != nil {
		t.Fatal(err)
	}
	runHashSequence(t, r, []byte("some pal"))
	nonce := palcrypto.SHA1Sum([]byte("verifier nonce"))
	sel := SelectPCRs(17)
	q, err := r.os.Quote(aik, Digest{}, nonce, sel)
	if err != nil {
		t.Fatal(err)
	}
	// The verifier recomputes the expected composite and checks the sig.
	wantPCR := ExtendDigest(Digest{}, palcrypto.SHA1Sum([]byte("some pal")))
	wantComposite := CompositeHash(sel, map[int]Digest{17: wantPCR})
	if q.Composite != wantComposite {
		t.Fatal("quote composite != expected")
	}
	qi := QuoteInfo(q.Composite, nonce)
	if err := palcrypto.VerifyPKCS1SHA1(aikPub, qi, q.Signature); err != nil {
		t.Fatalf("quote signature invalid: %v", err)
	}
	// A different nonce must not verify against this signature.
	other := QuoteInfo(q.Composite, palcrypto.SHA1Sum([]byte("replayed nonce")))
	if err := palcrypto.VerifyPKCS1SHA1(aikPub, other, q.Signature); err == nil {
		t.Fatal("quote verified under wrong nonce (replay)")
	}
}

func TestQuoteRequiresAIK(t *testing.T) {
	r := newRig(t)
	nonce := Digest{}
	if _, err := r.os.Quote(0xdeadbeef, Digest{}, nonce, SelectPCRs(17)); !IsCode(err, RCBadIndex) {
		t.Fatalf("quote with bogus handle: %v", err)
	}
	if _, err := r.os.Quote(KHSRK, Digest{}, nonce, SelectPCRs(17)); !IsCode(err, RCBadIndex) {
		t.Fatalf("quote with SRK handle: %v", err)
	}
}

func TestMakeIdentityWrongOwnerAuth(t *testing.T) {
	clock := simtime.New()
	var owner Digest
	copy(owner[:], bytes.Repeat([]byte{7}, DigestSize))
	tp, _ := New(clock, simtime.ProfileBroadcom(), Options{Seed: []byte("t"), OwnerAuth: owner})
	bus := tis.NewBus(tp)
	c := NewClient(bus, tis.Locality0, []byte("n"))
	if _, _, _, err := c.MakeIdentity(Digest{}); !IsCode(err, RCAuthFail) {
		t.Fatalf("wrong owner auth: %v, want auth fail", err)
	}
	if _, _, _, err := c.MakeIdentity(owner); err != nil {
		t.Fatalf("correct owner auth: %v", err)
	}
}

func TestNVPCRGating(t *testing.T) {
	r := newRig(t)
	pal := []byte("counter-owning PAL")
	v := ExtendDigest(Digest{}, palcrypto.SHA1Sum(pal))
	sel := SelectPCRs(17)
	dig := CompositeHash(sel, map[int]Digest{17: v})
	req := &NVPCRRequirement{Read: sel, ReadDigest: dig, Write: sel, WriteDigest: dig}
	if err := r.os.NVDefineSpace(Digest{}, 0x1000, 8, req); err != nil {
		t.Fatal(err)
	}
	// The OS (PCR 17 = -1) can neither read nor write.
	if err := r.os.NVWrite(0x1000, 0, []byte{1}); !IsCode(err, RCAreaLocked) {
		t.Fatalf("OS NV write: %v, want area locked", err)
	}
	if _, err := r.os.NVRead(0x1000, 0, 1); !IsCode(err, RCAreaLocked) {
		t.Fatalf("OS NV read: %v, want area locked", err)
	}
	// The right PAL can.
	runHashSequence(t, r, pal)
	if err := r.pal.NVWrite(0x1000, 0, []byte{0, 0, 0, 42}); err != nil {
		t.Fatalf("PAL NV write: %v", err)
	}
	got, err := r.pal.NVRead(0x1000, 0, 4)
	if err != nil || !bytes.Equal(got, []byte{0, 0, 0, 42}) {
		t.Fatalf("PAL NV read: %v %v", got, err)
	}
}

func TestNVUngatedAndBounds(t *testing.T) {
	r := newRig(t)
	if err := r.os.NVDefineSpace(Digest{}, 7, 16, nil); err != nil {
		t.Fatal(err)
	}
	// Redefinition is rejected.
	if err := r.os.NVDefineSpace(Digest{}, 7, 16, nil); !IsCode(err, RCBadIndex) {
		t.Fatalf("redefine: %v", err)
	}
	if err := r.os.NVWrite(7, 12, []byte{1, 2, 3, 4, 5}); !IsCode(err, RCBadParameter) {
		t.Fatalf("overflow write: %v", err)
	}
	if err := r.os.NVWrite(7, 4, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	got, err := r.os.NVRead(7, 4, 2)
	if err != nil || !bytes.Equal(got, []byte{9, 9}) {
		t.Fatalf("read back: %v %v", got, err)
	}
	if _, err := r.os.NVRead(99, 0, 1); !IsCode(err, RCBadIndex) {
		t.Fatalf("undefined index read: %v", err)
	}
}

func TestNVSurvivesReboot(t *testing.T) {
	r := newRig(t)
	r.os.NVDefineSpace(Digest{}, 3, 4, nil)
	r.os.NVWrite(3, 0, []byte{1, 2, 3, 4})
	r.tpm.Reboot()
	if err := r.os.Startup(); err != nil {
		t.Fatalf("startup after reboot: %v", err)
	}
	got, err := r.os.NVRead(3, 0, 4)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("NV lost across reboot: %v %v", got, err)
	}
}

func TestMonotonicCounter(t *testing.T) {
	r := newRig(t)
	id, err := r.os.CreateCounter(Digest{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := r.os.ReadCounter(id)
	if v != 0 {
		t.Fatalf("fresh counter = %d", v)
	}
	for i := 1; i <= 5; i++ {
		nv, err := r.os.IncrementCounter(id)
		if err != nil || nv != uint32(i) {
			t.Fatalf("increment %d: %d %v", i, nv, err)
		}
	}
	r.tpm.Reboot()
	if err := r.os.Startup(); err != nil {
		t.Fatalf("startup after reboot: %v", err)
	}
	if v, _ := r.os.ReadCounter(id); v != 5 {
		t.Fatalf("counter lost across reboot: %d", v)
	}
	if _, err := r.os.IncrementCounter(999); !IsCode(err, RCBadIndex) {
		t.Fatalf("bogus counter id: %v", err)
	}
}

func TestGetRandomDeterministicPerSeed(t *testing.T) {
	r := newRig(t)
	a, err := r.os.GetRandom(32)
	if err != nil || len(a) != 32 {
		t.Fatalf("GetRandom: %v len=%d", err, len(a))
	}
	b, _ := r.os.GetRandom(32)
	if bytes.Equal(a, b) {
		t.Fatal("successive GetRandom calls identical")
	}
	if _, err := r.os.GetRandom(1 << 20); err == nil {
		t.Fatal("oversize GetRandom accepted")
	}
}

func TestGetCapability(t *testing.T) {
	r := newRig(t)
	ver, n, err := r.os.GetVersion()
	if err != nil || ver != "1.2" || n != NumPCRs {
		t.Fatalf("GetVersion: %q %d %v", ver, n, err)
	}
	bc, err := r.os.BootCount()
	if err != nil || bc != 1 {
		t.Fatalf("BootCount: %d %v", bc, err)
	}
}

func TestMalformedCommandsDoNotPanic(t *testing.T) {
	r := newRig(t)
	inputs := malformedFrames()
	for i, in := range inputs {
		resp := r.tpm.HandleCommand(tis.Locality0, in)
		if _, rc, _, err := parseFrame(resp); err != nil || rc == RCSuccess {
			t.Errorf("input %d: rc=%#x err=%v (want graceful failure)", i, rc, err)
		}
	}
}

func TestTimingChargesMatchProfile(t *testing.T) {
	r := newRig(t)
	p := simtime.ProfileBroadcom()
	before := r.clock.Now()
	r.os.Extend(10, Digest{})
	if got := r.clock.Now() - before; got != p.TPMExtend {
		t.Errorf("extend charged %v, want %v", got, p.TPMExtend)
	}
	before = r.clock.Now()
	blob, _ := r.os.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("d"))
	sealCost := r.clock.Now() - before
	// Seal = OIAP session + seal op.
	if want := p.TPMOIAPSession + p.TPMSeal; sealCost != want {
		t.Errorf("seal charged %v, want %v", sealCost, want)
	}
	before = r.clock.Now()
	r.os.Unseal(Digest{}, blob)
	if want := p.TPMOIAPSession + p.TPMUnseal; r.clock.Now()-before != want {
		t.Errorf("unseal charged %v, want %v", r.clock.Now()-before, want)
	}
}

func TestHashSequenceTransferCharge(t *testing.T) {
	r := newRig(t)
	p := simtime.ProfileBroadcom()
	before := r.clock.Now()
	runHashSequence(t, r, make([]byte, 4096))
	got := r.clock.Now() - before
	want := 4096 * p.TPMTransferPerByte
	if got != want {
		t.Errorf("4KB transfer charged %v, want %v", got, want)
	}
}

func TestCompositeHashDeterministic(t *testing.T) {
	sel := SelectPCRs(17, 18)
	vals := map[int]Digest{
		17: palcrypto.SHA1Sum([]byte("a")),
		18: palcrypto.SHA1Sum([]byte("b")),
	}
	if CompositeHash(sel, vals) != CompositeHash(sel, vals) {
		t.Fatal("composite not deterministic")
	}
	vals2 := map[int]Digest{17: vals[18], 18: vals[17]}
	if CompositeHash(sel, vals) == CompositeHash(sel, vals2) {
		t.Fatal("composite ignores value positions")
	}
}

func TestPCRSelection(t *testing.T) {
	s := SelectPCRs(0, 17, 23)
	if !s.Has(0) || !s.Has(17) || !s.Has(23) || s.Has(16) {
		t.Fatal("Has wrong")
	}
	idx := s.Indices()
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 17 || idx[2] != 23 {
		t.Fatalf("Indices = %v", idx)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SelectPCRs(24) did not panic")
		}
	}()
	SelectPCRs(24)
}

func TestStartupDiscipline(t *testing.T) {
	r := newRig(t)
	// A fresh TPM (New plays the BIOS) accepts commands immediately...
	if _, err := r.os.PCRRead(0); err != nil {
		t.Fatal(err)
	}
	// ...a double Startup without a reset is rejected...
	if err := r.os.Startup(); !IsCode(err, RCBadOrdinal) {
		t.Fatalf("double startup: %v", err)
	}
	// ...and after a reset everything but Startup fails.
	r.tpm.Reboot()
	if _, err := r.os.PCRRead(0); !IsCode(err, RCInvalidPostInit) {
		t.Fatalf("post-reset command: %v, want invalid-postinit", err)
	}
	if _, err := r.os.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("x")); !IsCode(err, RCInvalidPostInit) {
		t.Fatalf("post-reset seal: %v", err)
	}
	if err := r.os.Startup(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.os.PCRRead(0); err != nil {
		t.Fatalf("post-startup command: %v", err)
	}
}
