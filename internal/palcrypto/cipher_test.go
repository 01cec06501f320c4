package palcrypto

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func TestAESFIPS197Vectors(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		// FIPS-197 Appendix C.
		{"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
			"69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "00112233445566778899aabbccddeeff",
			"dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "00112233445566778899aabbccddeeff",
			"8ea2b7ca516745bfeafc49904b496089"},
		// FIPS-197 Appendix B.
		{"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
			"3925841d02dc09fbdc118597196a0b32"},
	}
	for i, tc := range cases {
		var c AES
		if err := c.SetKey(mustHex(t, tc.key)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := make([]byte, 16)
		c.Encrypt(got, mustHex(t, tc.pt))
		if hex.EncodeToString(got) != tc.ct {
			t.Errorf("case %d: encrypt = %x, want %s", i, got, tc.ct)
		}
	}
}

func TestAESInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 31, 33, 64} {
		var c AES
		if err := c.SetKey(make([]byte, n)); err == nil {
			t.Errorf("SetKey accepted %d-byte key", n)
		}
	}
}

// Property: our AES agrees with crypto/aes for random keys and blocks.
func TestAESMatchesStdlib(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		var ours AES
		if err := ours.SetKey(key[:]); err != nil {
			return false
		}
		std, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		a, b := make([]byte, 16), make([]byte, 16)
		ours.Encrypt(a, block[:])
		std.Encrypt(b, block[:])
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAES256MatchesStdlib(t *testing.T) {
	f := func(key [32]byte, block [16]byte) bool {
		var ours AES
		if err := ours.SetKey(key[:]); err != nil {
			return false
		}
		std, _ := aes.NewCipher(key[:])
		a, b := make([]byte, 16), make([]byte, 16)
		ours.Encrypt(a, block[:])
		std.Encrypt(b, block[:])
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AES-192 agrees with crypto/aes, so the 6-word key schedule is
// cross-checked too.
func TestAES192MatchesStdlib(t *testing.T) {
	f := func(key [24]byte, block [16]byte) bool {
		var ours AES
		if err := ours.SetKey(key[:]); err != nil {
			return false
		}
		std, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		a, b := make([]byte, 16), make([]byte, 16)
		ours.Encrypt(a, block[:])
		std.Encrypt(b, block[:])
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAESSetKeyRekeysInPlace pins the value-schedule contract the TPM's
// envelope scratch relies on: rekeying a used AES (including to a shorter
// key) and zeroing it leave no trace of the previous schedule.
func TestAESSetKeyRekeysInPlace(t *testing.T) {
	var a AES
	if err := a.SetKey(bytes.Repeat([]byte{0xEE}, 32)); err != nil {
		t.Fatal(err)
	}
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	if err := a.SetKey(key); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	a.Encrypt(got, mustHex(t, "00112233445566778899aabbccddeeff"))
	if hex.EncodeToString(got) != "69c4e0d86a7b0430d8cdb78070b4c55a" {
		t.Fatalf("rekeyed encrypt = %x", got)
	}
	var fresh AES
	if err := fresh.SetKey(key); err != nil {
		t.Fatal(err)
	}
	if a != fresh {
		t.Fatal("rekeying kept rounds of the previous 256-bit schedule")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.SetKey(key) }); allocs != 0 {
		t.Errorf("SetKey allocates %.0f times, want 0", allocs)
	}
	a.Zero()
	if a != (AES{}) {
		t.Fatal("Zero left key schedule state behind")
	}
}

// Property: CTR keystream is an involution (encrypting twice restores).
func TestAESCTRInvolution(t *testing.T) {
	f := func(key [16]byte, iv [16]byte, data []byte) bool {
		var c AES
		c.SetKey(key[:])
		buf := append([]byte(nil), data...)
		c.CTRKeystream(iv, buf)
		c.CTRKeystream(iv, buf)
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAESCTRDifferentIVsDiffer(t *testing.T) {
	var c AES
	c.SetKey(make([]byte, 16))
	data := make([]byte, 64)
	a := append([]byte(nil), data...)
	b := append([]byte(nil), data...)
	c.CTRKeystream([16]byte{0: 1}, a)
	c.CTRKeystream([16]byte{0: 2}, b)
	if bytes.Equal(a, b) {
		t.Fatal("different IVs produced identical keystreams")
	}
}

func TestAESCTRCounterCarry(t *testing.T) {
	// An IV of all 0xFF must wrap without panicking and still decrypt.
	var c AES
	if err := c.SetKey(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")); err != nil {
		t.Fatal(err)
	}
	var iv [16]byte
	for i := range iv {
		iv[i] = 0xff
	}
	data := bytes.Repeat([]byte{0x42}, 80)
	buf := append([]byte(nil), data...)
	c.CTRKeystream(iv, buf)
	c.CTRKeystream(iv, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("CTR carry wrap broke round trip")
	}
}
