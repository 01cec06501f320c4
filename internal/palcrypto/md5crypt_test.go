package palcrypto

import (
	"strings"
	"testing"
	"testing/quick"
)

// Reference entries generated with `openssl passwd -1 -salt <salt> <pw>`,
// which implements the canonical crypt(3) $1$ algorithm.
func TestMD5CryptReferenceVectors(t *testing.T) {
	cases := []struct{ password, salt, want string }{
		{"0.s0.l33t", "deadbeef", "$1$deadbeef$0Huu6KHrKLVWfqa4WljDE0"},
		{"password", "saltsalt", "$1$saltsalt$qjXMvbEw8oaL.CzflDtaK/"},
		{"pa55w0rd.longer-than-16-chars", "Vxu1bkBV", "$1$Vxu1bkBV$jtRCWLdFOIbZxhCy1ZDQP1"},
	}
	for _, tc := range cases {
		if got := MD5Crypt(tc.password, tc.salt); got != tc.want {
			t.Errorf("MD5Crypt(%q, %q) = %q, want %q", tc.password, tc.salt, got, tc.want)
		}
	}
}

func TestMD5CryptSaltNormalization(t *testing.T) {
	want := MD5Crypt("secret", "abcd1234")
	// A "$1$" prefix and trailing "$..." must be stripped from the salt.
	if got := MD5Crypt("secret", "$1$abcd1234$whatever"); got != want {
		t.Errorf("prefixed salt produced %q, want %q", got, want)
	}
	// Salts longer than 8 characters are truncated.
	if got := MD5Crypt("secret", "abcd1234EXTRA"); got != want {
		t.Errorf("long salt produced %q, want %q", got, want)
	}
}

func TestMD5CryptOutputShape(t *testing.T) {
	f := func(pw string, saltSeed uint32) bool {
		if len(pw) > 64 {
			pw = pw[:64]
		}
		salt := ""
		for i := 0; i < 8; i++ {
			salt += string(itoa64[(saltSeed>>(i*4))&0x3f&63])
		}
		out := MD5Crypt(pw, salt)
		if !strings.HasPrefix(out, "$1$"+salt+"$") {
			return false
		}
		hash := out[len("$1$"+salt+"$"):]
		if len(hash) != 22 {
			return false
		}
		for _, c := range hash {
			if !strings.ContainsRune(itoa64, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMD5CryptDistinctPasswordsDistinctHashes(t *testing.T) {
	a := MD5Crypt("password-a", "somesalt")
	b := MD5Crypt("password-b", "somesalt")
	c := MD5Crypt("password-a", "othrsalt")
	if a == b {
		t.Error("different passwords hashed identically")
	}
	if a == c {
		t.Error("different salts hashed identically")
	}
}
