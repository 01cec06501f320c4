package palcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

func TestHMACSHA1RFC2202Vectors(t *testing.T) {
	cases := []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b617318655057264e28bc0b6fb378c8ef146be00"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
		{bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50),
			"125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
		// Key longer than the block size.
		{bytes.Repeat([]byte{0xaa}, 80), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"aa4ae5e15272d00e95705637ce8a3b55ed402112"},
	}
	for i, tc := range cases {
		got := HMACSHA1(tc.key, tc.data)
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("case %d: got %x, want %s", i, got, tc.want)
		}
	}
}

func TestHMACMatchesStdlib(t *testing.T) {
	f := func(key, data []byte) bool {
		ours := HMACSHA1(key, data)
		std := hmac.New(sha1.New, key)
		std.Write(data)
		return bytes.Equal(ours[:], std.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHMACSHA1NoAllocs pins the one-shot MAC to the stack, for short keys
// and for keys longer than a block (which are hashed first).
func TestHMACSHA1NoAllocs(t *testing.T) {
	msg := []byte("ordinal || params digest || nonces")
	for _, key := range [][]byte{bytes.Repeat([]byte{0x0b}, 20), bytes.Repeat([]byte{0xaa}, 80)} {
		if n := testing.AllocsPerRun(100, func() { HMACSHA1(key, msg) }); n != 0 {
			t.Errorf("HMACSHA1 with a %d-byte key allocates %.0f times, want 0", len(key), n)
		}
	}
}

func TestConstantTimeEqual(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "", true},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"abc", "ab", false},
		{"", "x", false},
		{strings.Repeat("z", 1000), strings.Repeat("z", 1000), true},
	}
	for _, tc := range cases {
		if got := ConstantTimeEqual([]byte(tc.a), []byte(tc.b)); got != tc.want {
			t.Errorf("ConstantTimeEqual(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestConstantTimeEqualProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		return ConstantTimeEqual(a, b) == bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
