package tpm

import (
	"bytes"
	"testing"
)

// TestClientResultsSurviveNextCommand pins the client's ownership rule: a
// response body lives in the client's scratch only until the next command,
// so every byte slice a method returns must be the caller's own copy.
// Results are snapshotted when returned and compared after later commands
// (and a Scrub) on the same client have overwritten its scratch.
func TestClientResultsSurviveNextCommand(t *testing.T) {
	r := newRig(t)
	c := r.os
	type result struct {
		name string
		got  []byte
		want []byte
	}
	var results []result
	keep := func(name string, b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results = append(results, result{name, b, bytes.Clone(b)})
	}

	rnd, err := c.GetRandom(64)
	keep("GetRandom", rnd, err)
	blob, err := c.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("first secret"))
	keep("Seal", blob, err)
	osapBlob, err := c.SealOSAP(Digest{}, PCRSelection{}, Digest{}, []byte("osap secret"))
	keep("SealOSAP", osapBlob, err)
	plain, err := c.Unseal(Digest{}, blob)
	keep("Unseal", plain, err)
	osapPlain, err := c.UnsealOSAP(Digest{}, osapBlob)
	keep("UnsealOSAP", osapPlain, err)

	aik, _, aikBlob, err := c.MakeIdentity(Digest{})
	keep("MakeIdentity", aikBlob, err)
	q, err := c.Quote(aik, Digest{}, Digest{1}, SelectPCRs(17))
	if err != nil {
		t.Fatal(err)
	}
	keep("Quote", q.Signature, nil)

	usageAuth := Digest{2}
	wrapped, _, err := c.CreateWrapKey(Digest{}, KeyUsageSigning, usageAuth)
	keep("CreateWrapKey", wrapped, err)
	h, err := c.LoadKey2(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := c.Sign(h, usageAuth, []byte("message"))
	keep("Sign", sig, err)

	if err := c.NVDefineSpace(Digest{}, 0x2000, 16, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.NVWrite(0x2000, 0, []byte("nv contents here")); err != nil {
		t.Fatal(err)
	}
	nv, err := c.NVRead(0x2000, 0, 16)
	keep("NVRead", nv, err)

	// Later commands of every response shape, then a scrub of the scratch.
	if _, err := c.Seal(Digest{}, SelectPCRs(17), Digest{}, bytes.Repeat([]byte{0xEE}, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Quote(aik, Digest{}, Digest{3}, SelectPCRs(17)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetRandom(1024); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NVRead(0x2000, 0, 8); err != nil {
		t.Fatal(err)
	}
	c.Scrub()

	for _, res := range results {
		if !bytes.Equal(res.got, res.want) {
			t.Errorf("%s result changed after later commands on the same client", res.name)
		}
	}
	if !bytes.Equal(plain, []byte("first secret")) || !bytes.Equal(osapPlain, []byte("osap secret")) {
		t.Errorf("unsealed plaintext = %q, %q", plain, osapPlain)
	}
}

// TestClientScrub checks that Scrub zeroes every scratch byte, including the
// capacity beyond the last command, and that Unseal and GetRandomInto leave
// no copy of their payload in the response scratch even before a Scrub.
func TestClientScrub(t *testing.T) {
	r := newRig(t)
	c := r.pal
	secret := bytes.Repeat([]byte("plaintext!"), 40)
	blob, err := c.Seal(Digest{}, PCRSelection{}, Digest{}, secret)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Unseal(Digest{}, blob); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(c.rsp, secret) {
		t.Error("Unseal left its plaintext in the response scratch")
	}
	seed := make([]byte, 128)
	if err := c.GetRandomInto(seed); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(c.rsp, seed) {
		t.Error("GetRandomInto left its bytes in the response scratch")
	}
	if c.Scrubbed() {
		t.Fatal("scratch reads as scrubbed while it still holds the last commands")
	}
	c.Scrub()
	if !c.Scrubbed() {
		t.Fatal("Scrub left non-zero scratch bytes")
	}
	// The scrubbed client keeps working.
	if _, err := c.Unseal(Digest{}, blob); err != nil {
		t.Fatal(err)
	}
}

// TestAppendUnseal checks that AppendUnseal appends the plaintext after
// what dst holds, into dst's own storage when it has room, and that a
// failed Unseal returns nil.
func TestAppendUnseal(t *testing.T) {
	r := newRig(t)
	c := r.pal
	blob, err := c.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "kept:"...)
	got, err := c.AppendUnseal(dst, Digest{}, blob)
	if err != nil || string(got) != "kept:secret" {
		t.Fatalf("AppendUnseal = %q, %v; want %q", got, err, "kept:secret")
	}
	if &got[0] != &dst[0] {
		t.Error("AppendUnseal left a destination with room for the plaintext")
	}
	blob[len(blob)-1] ^= 1
	if got, err := c.AppendUnseal(dst, Digest{}, blob); err == nil || got != nil {
		t.Errorf("tampered blob: AppendUnseal = %q, %v; want nil and an error", got, err)
	}
}
