package ca

import (
	"testing"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/sealed"
	"flicker/internal/tpm"
)

// newAuthorityNV builds an authority whose policy carries a replay-protection
// NV counter (Figure 4), mirroring the setup in TestReplayProtectedCADefeatsRollback.
func newAuthorityNV(t *testing.T, seed string) *Authority {
	t.Helper()
	p, err := core.NewPlatform(core.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	const nvIdx = 0x00012000
	pol := &Policy{AllowedSuffixes: []string{".corp.example"}, ReplayNVIndex: nvIdx}
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
	return a
}

// runCABatch runs the CA PAL's framed batch, the one the pool and fabric
// coalesce into, with the authority's sealed database as the batch header:
// one unseal, a policy check and signature per CSR, one reseal as the
// trailer. It adopts the trailer as the authority's database and returns
// per-CSR certificates and request errors.
func runCABatch(t *testing.T, a *Authority, csrs []*CSR) ([]*Certificate, []error) {
	t.Helper()
	reqs := make([][]byte, len(csrs))
	for i, csr := range csrs {
		reqs[i] = EncodeBatchCSR(csr)
	}
	br, err := a.P.RunSessionBatch(NewCAPAL(a.policy), core.Batch{Header: a.sealedDB, Requests: reqs},
		core.SessionOptions{TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	if br.Session.PALError != nil {
		t.Fatalf("batch PAL: %v", br.Session.PALError)
	}
	certs := make([]*Certificate, len(csrs))
	errs := make([]error, len(csrs))
	for i, r := range br.Replies {
		if r.Err != nil {
			errs[i] = r.Err
			continue
		}
		if certs[i], errs[i] = DecodeCertificate(r.Output); errs[i] != nil {
			t.Fatalf("CSR %d: %v", i, errs[i])
		}
	}
	a.sealedDB = br.Trailer
	return certs, errs
}

// A batch signs N certificates in ONE session, sequential serials, all
// verifiable, sealed database advanced once.
func TestSignBatch(t *testing.T) {
	a := newAuthority(t, "ca-batch", nil)
	csrs := []*CSR{
		testCSR("mail.corp.example"),
		testCSR("db.corp.example"),
		testCSR("web.corp.example"),
	}
	sessions := func() float64 { return a.P.Metrics.Snapshot().Sum("flicker_sessions_total", "ok") }
	before := sessions()
	certs, errs := runCABatch(t, a, csrs)
	if got := sessions() - before; got != 1 {
		t.Fatalf("the batch ran %v sessions for 3 CSRs, want 1", got)
	}
	for i, cert := range certs {
		if errs[i] != nil {
			t.Fatalf("CSR %d: %v", i, errs[i])
		}
		if cert.Serial != uint64(i+1) {
			t.Errorf("cert %d serial = %d, want %d (sequential)", i, cert.Serial, i+1)
		}
		if cert.Subject != csrs[i].Subject {
			t.Errorf("cert %d subject = %q", i, cert.Subject)
		}
		if err := a.Validate(cert); err != nil {
			t.Errorf("cert %d invalid: %v", i, err)
		}
	}
	// The database advanced: a later singleton Sign continues the serial
	// sequence, proving the batch trailer replaced the sealed DB.
	next, err := a.Sign(testCSR("extra.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Serial != 4 {
		t.Fatalf("post-batch serial = %d, want 4", next.Serial)
	}
}

// A mid-batch policy rejection fails only its own CSR; the batch still
// signs the rest and the database still reseals.
func TestSignBatchPolicyRejectIsolated(t *testing.T) {
	a := newAuthority(t, "ca-batch-rej", nil)
	certs, errs := runCABatch(t, a, []*CSR{
		testCSR("ok1.corp.example"),
		testCSR("evil.attacker.example"), // not under the allowed suffix
		testCSR("ok2.corp.example"),
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("allowed CSRs failed: %v, %v", errs[0], errs[2])
	}
	if !IsPolicyError(errs[1]) {
		t.Fatalf("rejected CSR err = %v, want a policy rejection", errs[1])
	}
	if certs[1] != nil {
		t.Fatal("rejected CSR produced a certificate")
	}
	// Serials skip nothing: the reject never consumed one.
	if certs[0].Serial != 1 || certs[2].Serial != 2 {
		t.Fatalf("serials = %d, %d; want 1, 2", certs[0].Serial, certs[2].Serial)
	}
	// The database survived and still signs.
	next, err := a.Sign(testCSR("later.corp.example"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Serial != 3 {
		t.Fatalf("post-batch serial = %d, want 3", next.Serial)
	}
}

// Batched signing under the replay-protected (NV counter) database policy:
// the counter advances once per batch, and stale sealed DBs stay rejected.
func TestSignBatchReplayProtected(t *testing.T) {
	a := newAuthorityNV(t, "ca-batch-nv")
	stale := append([]byte(nil), a.sealedDB...)
	certs, errs := runCABatch(t, a, []*CSR{
		testCSR("a.corp.example"),
		testCSR("b.corp.example"),
	})
	for i := range certs {
		if errs[i] != nil {
			t.Fatalf("CSR %d: %v", i, errs[i])
		}
	}
	// Rolling back to the pre-batch database must fail: the NV counter
	// moved when the batch resealed.
	a.sealedDB = stale
	if _, err := a.Sign(testCSR("c.corp.example")); err == nil {
		t.Fatal("stale pre-batch database accepted after a batch advanced the counter")
	}
}
