package palcrypto

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"hash"
	"strings"
	"testing"
	"testing/quick"
)

func hexEq(t *testing.T, got []byte, wantHex string) {
	t.Helper()
	if gh := hex.EncodeToString(got); gh != wantHex {
		t.Errorf("digest = %s, want %s", gh, wantHex)
	}
}

func TestSHA1Vectors(t *testing.T) {
	// FIPS 180-4 / RFC 3174 vectors.
	cases := []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{strings.Repeat("a", 1000000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	}
	for _, tc := range cases {
		d := SHA1Sum([]byte(tc.in))
		hexEq(t, d[:], tc.want)
	}
}

func TestMD5Vectors(t *testing.T) {
	// RFC 1321 Appendix A.5 vectors.
	cases := []struct{ in, want string }{
		{"", "d41d8cd98f00b204e9800998ecf8427e"},
		{"a", "0cc175b9c0f1b6a831c399e269772661"},
		{"abc", "900150983cd24fb0d6963f7d28e17f72"},
		{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
		{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
			"d174ab98d277d9f5a5611c2c9f419d9f"},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
			"57edf4a22be3c955ac49da2e2107b67a"},
	}
	for _, tc := range cases {
		d := MD5Sum([]byte(tc.in))
		hexEq(t, d[:], tc.want)
	}
}

// Property: our implementations agree with the standard library on
// arbitrary inputs (including ones that straddle block boundaries).
func TestHashesMatchStdlib(t *testing.T) {
	f := func(data []byte) bool {
		s1 := SHA1Sum(data)
		w1 := sha1.Sum(data)
		m := MD5Sum(data)
		wm := md5.Sum(data)
		return s1 == w1 && m == wm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: streaming in arbitrary chunk splits equals one-shot hashing.
func TestStreamingEqualsOneShot(t *testing.T) {
	f := func(data []byte, splits []uint8) bool {
		h := NewSHA1()
		rest := data
		for _, s := range splits {
			if len(rest) == 0 {
				break
			}
			n := int(s) % (len(rest) + 1)
			h.Write(rest[:n])
			rest = rest[n:]
		}
		h.Write(rest)
		want := SHA1Sum(data)
		return bytes.Equal(h.Sum(nil), want[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	h := NewSHA1()
	h.Write([]byte("hello "))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("repeated Sum differs")
	}
	h.Write([]byte("world"))
	want := SHA1Sum([]byte("hello world"))
	if !bytes.Equal(h.Sum(nil), want[:]) {
		t.Fatal("Sum disturbed streaming state")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	for _, h := range []hash.Hash{NewSHA1(), NewMD5()} {
		h.Write([]byte("garbage"))
		h.Reset()
		h.Write([]byte("abc"))
		fresh := map[int]string{
			SHA1Size: "a9993e364706816aba3e25717850c26c9cd0d89d",
			MD5Size:  "900150983cd24fb0d6963f7d28e17f72",
		}
		hexEq(t, h.Sum(nil), fresh[h.Size()])
	}
}

func TestBlockBoundaryLengths(t *testing.T) {
	// Exercise every length around the SHA-1/MD5 padding boundary; compare
	// against stdlib.
	for n := 50; n <= 70; n++ {
		data := bytes.Repeat([]byte{0xA5}, n)
		if SHA1Sum(data) != sha1.Sum(data) {
			t.Errorf("sha1 mismatch at len %d", n)
		}
		if MD5Sum(data) != md5.Sum(data) {
			t.Errorf("md5 mismatch at len %d", n)
		}
	}
}
