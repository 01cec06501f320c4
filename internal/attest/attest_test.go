package attest

import (
	"strings"
	"testing"

	"flicker/internal/hw/tis"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

func testImage(t *testing.T, code string) *slb.Image {
	t.Helper()
	im, err := slb.Build(slb.PALCode{Name: "t", Code: []byte(code)})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestExpectedFinalPCR17Chain(t *testing.T) {
	im := testImage(t, "pal-x")
	nonce := palcrypto.SHA1Sum([]byte("n"))
	v := im.ExpectedPCR17()
	v = tpm.ExtendDigest(v, palcrypto.SHA1Sum([]byte("in")))
	v = tpm.ExtendDigest(v, palcrypto.SHA1Sum([]byte("out")))
	v = tpm.ExtendDigest(v, nonce)
	v = tpm.ExtendDigest(v, slb.SessionTerminator)
	if got := ExpectedFinalPCR17(im, []byte("in"), []byte("out"), &nonce); got != v {
		t.Fatal("chain mismatch")
	}
	// nil nonce omits the nonce extend.
	v2 := im.ExpectedPCR17()
	v2 = tpm.ExtendDigest(v2, palcrypto.SHA1Sum([]byte("in")))
	v2 = tpm.ExtendDigest(v2, palcrypto.SHA1Sum([]byte("out")))
	v2 = tpm.ExtendDigest(v2, slb.SessionTerminator)
	if got := ExpectedFinalPCR17(im, []byte("in"), []byte("out"), nil); got != v2 {
		t.Fatal("nil-nonce chain mismatch")
	}
}

func TestExpectedLaunchPCR17TwoStage(t *testing.T) {
	im2, err := slb.BuildTwoStage(slb.PALCode{Name: "t", Code: []byte("pal-y")})
	if err != nil {
		t.Fatal(err)
	}
	if ExpectedLaunchPCR17(im2) != im2.ExpectedPCR17TwoStage() {
		t.Fatal("two-stage launch value wrong")
	}
	im1 := testImage(t, "pal-y")
	if ExpectedLaunchPCR17(im1) != im1.ExpectedPCR17() {
		t.Fatal("one-stage launch value wrong")
	}
}

func TestPrivacyCACertify(t *testing.T) {
	ca, err := NewPrivacyCA([]byte("seed"), 0)
	if err != nil {
		t.Fatal(err)
	}
	aik, err := palcrypto.GenerateRSAKey(palcrypto.NewPRNG([]byte("aik")), 512)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Certify("platform-1", &aik.RSAPublicKey)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := VerifyCert(ca.PublicKey(), cert)
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(aik.N) != 0 {
		t.Fatal("recovered AIK differs")
	}
	// Wrong CA key: rejected.
	other, _ := NewPrivacyCA([]byte("other"), 0)
	if _, err := VerifyCert(other.PublicKey(), cert); err == nil {
		t.Fatal("cert verified under wrong CA")
	}
	// Tampered platform ID: rejected.
	bad := *cert
	bad.PlatformID = "platform-2"
	if _, err := VerifyCert(ca.PublicKey(), &bad); err == nil {
		t.Fatal("tampered cert accepted")
	}
	if _, err := VerifyCert(ca.PublicKey(), nil); err == nil {
		t.Fatal("nil cert accepted")
	}
}

// attRig builds a TPM + daemon against a real simulated TPM.
func attRig(t *testing.T) (*tpm.TPM, *tis.Bus, *Daemon, *PrivacyCA) {
	t.Helper()
	clock := simtime.New()
	tp, err := tpm.New(clock, simtime.ProfileBroadcom(), tpm.Options{Seed: []byte("attest-test")})
	if err != nil {
		t.Fatal(err)
	}
	bus := tis.NewBus(tp)
	ca, err := NewPrivacyCA([]byte("ca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	tqd, err := NewDaemon(tpm.NewClient(bus, tis.Locality0, []byte("tqd")), tpm.Digest{}, ca, "test-platform")
	if err != nil {
		t.Fatal(err)
	}
	return tp, bus, tqd, ca
}

func TestDaemonQuoteVerifies(t *testing.T) {
	_, bus, tqd, ca := attRig(t)
	// Put PCR 17 into a known state via the hardware path.
	slbBytes := []byte("some measured pal")
	if _, err := tpm.RunHashSequence(bus, new(tpm.L4Scratch), slbBytes); err != nil {
		t.Fatal(err)
	}
	expected := tpm.ExtendDigest(tpm.Digest{}, palcrypto.SHA1Sum(slbBytes))
	nonce := palcrypto.SHA1Sum([]byte("fresh"))
	att, err := tqd.Quote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ca.PublicKey(), att, nonce, expected); err != nil {
		t.Fatalf("valid attestation rejected: %v", err)
	}
	// Wrong expected value: rejected with the PCR message.
	var wrong tpm.Digest
	wrong[0] = 1
	err = Verify(ca.PublicKey(), att, nonce, wrong)
	if err == nil || !strings.Contains(err.Error(), "PCR 17") {
		t.Fatalf("wrong-PCR error = %v", err)
	}
	// Forged signature: rejected.
	bad := *att
	bad.Signature = append([]byte(nil), att.Signature...)
	bad.Signature[10] ^= 1
	if err := Verify(ca.PublicKey(), &bad, nonce, expected); err == nil {
		t.Fatal("forged signature accepted")
	}
	// Nil attestation.
	if err := Verify(ca.PublicKey(), nil, nonce, expected); err == nil {
		t.Fatal("nil attestation accepted")
	}
}

func TestQuoteNonceBindsFreshness(t *testing.T) {
	_, _, tqd, ca := attRig(t)
	n1 := palcrypto.SHA1Sum([]byte("n1"))
	n2 := palcrypto.SHA1Sum([]byte("n2"))
	att, err := tqd.Quote(n1)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the n1 attestation for challenge n2 must fail even if the
	// attacker rewrites the claimed nonce (signature covers it).
	replay := *att
	replay.Nonce = n2
	var anything tpm.Digest
	if err := Verify(ca.PublicKey(), &replay, n2, anything); err == nil {
		t.Fatal("nonce-rewritten replay accepted")
	}
	if err := Verify(ca.PublicKey(), att, n2, anything); err == nil {
		t.Fatal("stale attestation accepted for new nonce")
	}
}

func TestDaemonSurvivesRebootViaReload(t *testing.T) {
	tp, bus, tqd, ca := attRig(t)
	if _, err := tpm.RunHashSequence(bus, new(tpm.L4Scratch), []byte("pal")); err != nil {
		t.Fatal(err)
	}
	nonce := palcrypto.SHA1Sum([]byte("pre"))
	if _, err := tqd.Quote(nonce); err != nil {
		t.Fatal(err)
	}
	// Power cycle: the volatile AIK handle is evicted. The BIOS issues
	// TPM_Startup before anything else runs.
	tp.Reboot()
	if err := tpm.NewClient(bus, tis.Locality0, []byte("bios")).Startup(); err != nil {
		t.Fatal(err)
	}
	if _, err := tqd.Quote(nonce); err == nil {
		t.Fatal("quote succeeded with an evicted AIK handle")
	}
	// The tqd reloads its wrapped blob at boot and quoting resumes, with
	// the SAME certified identity.
	if err := tqd.ReloadAIK(); err != nil {
		t.Fatal(err)
	}
	if _, err := tpm.RunHashSequence(bus, new(tpm.L4Scratch), []byte("pal")); err != nil {
		t.Fatal(err)
	}
	nonce2 := palcrypto.SHA1Sum([]byte("post"))
	att, err := tqd.Quote(nonce2)
	if err != nil {
		t.Fatal(err)
	}
	expected := tpm.ExtendDigest(tpm.Digest{}, palcrypto.SHA1Sum([]byte("pal")))
	if err := Verify(ca.PublicKey(), att, nonce2, expected); err != nil {
		t.Fatalf("post-reboot attestation invalid: %v", err)
	}
}

func TestExpectedFinalPCR17ExtChain(t *testing.T) {
	im := testImage(t, "ext-pal")
	d1 := palcrypto.SHA1Sum([]byte("kernel hash"))
	d2 := palcrypto.SHA1Sum([]byte("second extend"))
	nonce := palcrypto.SHA1Sum([]byte("n"))
	v := im.ExpectedPCR17()
	v = tpm.ExtendDigest(v, d1)
	v = tpm.ExtendDigest(v, d2)
	v = tpm.ExtendDigest(v, palcrypto.SHA1Sum([]byte("in")))
	v = tpm.ExtendDigest(v, palcrypto.SHA1Sum([]byte("out")))
	v = tpm.ExtendDigest(v, nonce)
	v = tpm.ExtendDigest(v, slb.SessionTerminator)
	got := ExpectedFinalPCR17Ext(im, []tpm.Digest{d1, d2}, []byte("in"), []byte("out"), &nonce)
	if got != v {
		t.Fatal("extended chain mismatch")
	}
	// With no PAL extends it degenerates to the plain chain.
	if ExpectedFinalPCR17Ext(im, nil, []byte("in"), []byte("out"), &nonce) !=
		ExpectedFinalPCR17(im, []byte("in"), []byte("out"), &nonce) {
		t.Fatal("empty extend list should match the plain chain")
	}
}

func TestLaunchChainWithExtraCode(t *testing.T) {
	im, err := slb.Build(slb.PALCode{Name: "big", Code: []byte("slb code"), Extra: []byte("upper code")})
	if err != nil {
		t.Fatal(err)
	}
	want := tpm.ExtendDigest(im.ExpectedPCR17(), im.ExtraMeasurement())
	if ExpectedLaunchPCR17(im) != want {
		t.Fatal("launch chain does not include the extra-code measurement")
	}
}
