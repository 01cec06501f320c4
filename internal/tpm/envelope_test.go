package tpm

import (
	"bytes"
	"encoding/hex"
	"testing"

	"flicker/internal/palcrypto"
)

func sha1Hex(b []byte) string {
	d := palcrypto.SHA1Sum(b)
	return hex.EncodeToString(d[:])
}

// TestEnvelopeBlobsGolden pins the exact bytes of a fixed-seed TPM's sealed
// blobs and wrapped-key blobs. The hashes cover the blob layout, the key
// derivation labels, and the order in which the TPM draws from its RNG
// (authorization nonces, seal seeds, PKCS#1 padding, key generation), so
// any change to the envelope codec that is not bit-identical trips it.
func TestEnvelopeBlobsGolden(t *testing.T) {
	r := newRig(t)
	sel := SelectPCRs(17, 18)
	var dar Digest
	copy(dar[:], bytes.Repeat([]byte{0xA5}, DigestSize))

	sealed, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("golden sealed payload"))
	if err != nil {
		t.Fatal(err)
	}
	bound, err := r.pal.Seal(Digest{}, sel, dar, bytes.Repeat([]byte{0x5A}, 300))
	if err != nil {
		t.Fatal(err)
	}
	osap, err := r.pal.SealOSAP(Digest{}, sel, dar, []byte("osap"))
	if err != nil {
		t.Fatal(err)
	}
	var usageAuth Digest
	copy(usageAuth[:], bytes.Repeat([]byte{0x11}, DigestSize))
	wrapped, _, err := r.os.CreateWrapKey(Digest{}, KeyUsageSigning, usageAuth)
	if err != nil {
		t.Fatal(err)
	}
	_, _, aik, err := r.os.MakeIdentity(Digest{})
	if err != nil {
		t.Fatal(err)
	}
	// Enough PKCS#1 padding (32 × 45 bytes) that zero bytes are drawn and
	// rejected, so the padding's rejection order is pinned too.
	var many []byte
	for i := 0; i < 32; i++ {
		b, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		many = append(many, b...)
	}

	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"seal", sealed, "f7949175d0480b81512ac1f0cef555b906f20280"},
		{"seal-bound", bound, "1f9a288cc6120f0409ac2c9860a46f058fb0bdcb"},
		{"seal-osap", osap, "94f469d248e6adbff4fb7c7b9148d27c6cb6f617"},
		{"createwrapkey", wrapped, "21cf353b1773b2d3f0410739a1d8515a258fe83a"},
		{"makeidentity", aik, "07dfc1f991099125c09a1353d3111a84666dd37e"},
		{"seal-x32", many, "b4697d8211d4be43632c2c428822dd374399d408"},
	} {
		if got := sha1Hex(c.blob); got != c.want {
			t.Errorf("%s blob SHA-1 = %s, want %s", c.name, got, c.want)
		}
	}
}

// scratchIsZero reports whether every secret the envelope scratch can hold
// is zero, and whether the plaintext buffer was ever used.
func scratchIsZero(tp *TPM) (zero, used bool) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	e := &tp.scratch
	zero = e.seed == [16]byte{} && e.encKey == Digest{} && e.macKey == Digest{} &&
		e.aes == palcrypto.AES{}
	for _, b := range e.pt[:cap(e.pt)] {
		zero = zero && b == 0
	}
	return zero, cap(e.pt) > 0
}

// TestEnvelopeScratchScrubbed checks the "erase all traces" rule for the
// TPM's reused envelope state: after Seal, Unseal, CreateWrapKey and
// LoadKey2 — and after a blob is rejected — the seed, the derived keys, the
// AES round keys and the plaintext scratch are all zero.
func TestEnvelopeScratchScrubbed(t *testing.T) {
	r := newRig(t)
	check := func(after string) {
		t.Helper()
		zero, used := scratchIsZero(r.tpm)
		if !used {
			t.Fatalf("after %s: the envelope scratch was never used", after)
		}
		if !zero {
			t.Errorf("after %s: envelope scratch still holds secrets", after)
		}
	}
	data := []byte("the CA's private signing key")
	blob, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, data)
	if err != nil {
		t.Fatal(err)
	}
	check("Seal")
	if got, err := r.pal.Unseal(Digest{}, blob); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Unseal = %q, %v", got, err)
	}
	check("Unseal")
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 1
	if _, err := r.pal.Unseal(Digest{}, bad); !IsCode(err, RCNotSealedBlob) {
		t.Fatalf("tampered Unseal: %v", err)
	}
	check("a rejected Unseal")

	wrapped, _, err := r.os.CreateWrapKey(Digest{}, KeyUsageSigning, Digest{})
	if err != nil {
		t.Fatal(err)
	}
	check("CreateWrapKey")
	if _, err := r.os.LoadKey2(wrapped); err != nil {
		t.Fatal(err)
	}
	check("LoadKey2")
}

// TestEnvelopeScratchBounded checks that the scrub leaves the plaintext
// scratch empty, so commands that never touch it do not pay to clear it,
// and that a large payload's buffer is not kept once the command returns.
func TestEnvelopeScratchBounded(t *testing.T) {
	r := newRig(t)
	scratch := func() (n, c int) {
		r.tpm.mu.Lock()
		defer r.tpm.mu.Unlock()
		return len(r.tpm.scratch.pt), cap(r.tpm.scratch.pt)
	}
	small := []byte("small state")
	if _, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, small); err != nil {
		t.Fatal(err)
	}
	if n, c := scratch(); n != 0 || c == 0 {
		t.Fatalf("after a small Seal: scratch len %d cap %d, want len 0 and a kept buffer", n, c)
	}
	large := bytes.Repeat([]byte{0xA5}, 4*maxRetainedPT)
	blob, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, large)
	if err != nil {
		t.Fatal(err)
	}
	if n, c := scratch(); n != 0 || c > maxRetainedPT {
		t.Errorf("after a large Seal: scratch len %d cap %d, want len 0 and cap <= %d", n, c, maxRetainedPT)
	}
	got, err := r.pal.Unseal(Digest{}, blob)
	if err != nil || !bytes.Equal(got, large) {
		t.Fatalf("Unseal of the large blob: %v", err)
	}
	if n, c := scratch(); n != 0 || c > maxRetainedPT {
		t.Errorf("after a large Unseal: scratch len %d cap %d, want len 0 and cap <= %d", n, c, maxRetainedPT)
	}
}

// FuzzUnsealBlob feeds untrusted blobs to Unseal and LoadKey2, seeded from
// real sealed and wrapped-key blobs. Properties: nothing panics, every
// mutated blob is rejected with the kind's single error code, and only the
// unmodified blobs open.
func FuzzUnsealBlob(f *testing.F) {
	r := newBenchRig(f)
	data := []byte("fuzz sealed payload")
	sealed, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, data)
	if err != nil {
		f.Fatal(err)
	}
	// Bound to PCR 17's current value, so it too opens when unmodified.
	sel := SelectPCRs(17)
	dar := CompositeHash(sel, map[int]Digest{17: r.tpm.PCRValue(17)})
	bound, err := r.pal.Seal(Digest{}, sel, dar, data)
	if err != nil {
		f.Fatal(err)
	}
	wrapped, _, err := r.os.CreateWrapKey(Digest{}, KeyUsageSigning, Digest{})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{sealed, bound, wrapped} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		got, err := r.pal.Unseal(Digest{}, blob)
		if bytes.Equal(blob, sealed) || bytes.Equal(blob, bound) {
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("unmodified sealed blob: Unseal = %q, %v", got, err)
			}
		} else if !IsCode(err, RCNotSealedBlob) {
			t.Fatalf("mutated sealed blob: Unseal = %q, %v; want RCNotSealedBlob", got, err)
		}

		h, err := r.os.LoadKey2(blob)
		if bytes.Equal(blob, wrapped) {
			if err != nil {
				t.Fatalf("unmodified wrapped key: LoadKey2: %v", err)
			}
			if err := r.os.FlushSpecific(h); err != nil {
				t.Fatal(err)
			}
		} else if !IsCode(err, RCBadParameter) {
			t.Fatalf("mutated wrapped key: LoadKey2 = %#x, %v; want RCBadParameter", h, err)
		}
	})
}
