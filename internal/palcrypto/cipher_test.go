package palcrypto

import (
	"bytes"
	"crypto/aes"
	stdrc4 "crypto/rc4"
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
		c, err := NewAES(mustHex(t, tc.key))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := make([]byte, 16)
		c.Encrypt(got, mustHex(t, tc.pt))
		if hex.EncodeToString(got) != tc.ct {
			t.Errorf("case %d: encrypt = %x, want %s", i, got, tc.ct)
		}
		back := make([]byte, 16)
		c.Decrypt(back, got)
		if hex.EncodeToString(back) != tc.pt {
			t.Errorf("case %d: decrypt = %x, want %s", i, back, tc.pt)
		}
	}
}

func TestAESInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 31, 33, 64} {
		if _, err := NewAES(make([]byte, n)); err == nil {
			t.Errorf("NewAES accepted %d-byte key", n)
		}
	}
}

// Property: our AES agrees with crypto/aes for random keys and blocks.
func TestAESMatchesStdlib(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		ours, err := NewAES(key[:])
		if err != nil {
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
		ours, _ := NewAES(key[:])
		std, _ := aes.NewCipher(key[:])
		a, b := make([]byte, 16), make([]byte, 16)
		ours.Encrypt(a, block[:])
		std.Encrypt(b, block[:])
		ours.Decrypt(a, a)
		return bytes.Equal(b[:0], b[:0]) && bytes.Equal(a, block[:]) && func() bool {
			ours.Encrypt(a, block[:])
			return bytes.Equal(a, b)
		}()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AES-192 agrees with crypto/aes in both directions, so the
// 6-word key schedule and the xtime inverse cipher are cross-checked too.
func TestAES192MatchesStdlib(t *testing.T) {
	f := func(key [24]byte, block [16]byte) bool {
		ours, err := NewAES(key[:])
		if err != nil {
			return false
		}
		std, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		a, b := make([]byte, 16), make([]byte, 16)
		ours.Encrypt(a, block[:])
		std.Encrypt(b, block[:])
		if !bytes.Equal(a, b) {
			return false
		}
		ours.Decrypt(a, block[:])
		std.Decrypt(b, block[:])
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
		c, _ := NewAES(key[:])
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
	c, _ := NewAES(make([]byte, 16))
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
	c, _ := NewAES(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
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

func TestRC4Vectors(t *testing.T) {
	// Vectors from the original Usenet posting / RFC 6229 spot checks.
	cases := []struct{ key, pt, ct string }{
		{"0102030405", "0000000000000000", "b2396305f03dc027"},
		{"4b6579", "506c61696e74657874", "bbf316e8d940af0ad3"},
		{"57696b69", "7065646961", "1021bf0420"},
	}
	for i, tc := range cases {
		c, err := NewRC4(mustHex(t, tc.key))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		pt := mustHex(t, tc.pt)
		out := make([]byte, len(pt))
		c.XORKeyStream(out, pt)
		if hex.EncodeToString(out) != tc.ct {
			t.Errorf("case %d: got %x, want %s", i, out, tc.ct)
		}
	}
}

func TestRC4MatchesStdlib(t *testing.T) {
	f := func(key []byte, data []byte) bool {
		if len(key) == 0 || len(key) > 256 {
			return true
		}
		ours, err := NewRC4(key)
		if err != nil {
			return false
		}
		std, err := stdrc4.NewCipher(key)
		if err != nil {
			return false
		}
		a := make([]byte, len(data))
		b := make([]byte, len(data))
		ours.XORKeyStream(a, data)
		std.XORKeyStream(b, data)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRC4InvalidKey(t *testing.T) {
	if _, err := NewRC4(nil); err == nil {
		t.Error("NewRC4 accepted empty key")
	}
	if _, err := NewRC4(make([]byte, 257)); err == nil {
		t.Error("NewRC4 accepted 257-byte key")
	}
}

func TestRC4StreamContinuity(t *testing.T) {
	// Encrypting in two calls must equal encrypting in one.
	key := []byte("continuity-key")
	one, _ := NewRC4(key)
	two, _ := NewRC4(key)
	data := bytes.Repeat([]byte{0xAB}, 100)
	a := make([]byte, 100)
	one.XORKeyStream(a, data)
	b := make([]byte, 100)
	two.XORKeyStream(b[:37], data[:37])
	two.XORKeyStream(b[37:], data[37:])
	if !bytes.Equal(a, b) {
		t.Fatal("split keystream differs from contiguous keystream")
	}
}
