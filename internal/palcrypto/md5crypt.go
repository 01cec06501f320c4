package palcrypto

import "strings"

// md5cryptMagic is the scheme prefix used in /etc/passwd-style entries.
const md5cryptMagic = "$1$"

// itoa64 is crypt(3)'s base-64 alphabet (distinct from RFC 4648).
const itoa64 = "./0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

// MD5Crypt implements the FreeBSD/Linux md5crypt password hash ("$1$"
// scheme, Poul-Henning Kamp's algorithm). The paper's SSH Login PAL
// (Figure 7) computes hash <- md5crypt(salt, password) inside the Flicker
// session and outputs only the hash, so the cleartext password never exists
// outside the PAL.
//
// salt is the raw salt string (at most 8 characters, truncated otherwise;
// a leading "$1$" prefix and anything after a '$' are stripped first).
// The return value is the full "$1$<salt>$<hash>" string as stored in a
// password file.
func MD5Crypt(password, salt string) string {
	salt = strings.TrimPrefix(salt, md5cryptMagic)
	if i := strings.IndexByte(salt, '$'); i >= 0 {
		salt = salt[:i]
	}
	if len(salt) > 8 {
		salt = salt[:8]
	}
	pw := []byte(password)
	sa := []byte(salt)

	ctx := NewMD5()
	ctx.Write(pw)
	ctx.Write([]byte(md5cryptMagic))
	ctx.Write(sa)

	alt := NewMD5()
	alt.Write(pw)
	alt.Write(sa)
	alt.Write(pw)
	altSum := alt.Sum(nil)

	for i := len(pw); i > 0; i -= 16 {
		n := i
		if n > 16 {
			n = 16
		}
		ctx.Write(altSum[:n])
	}
	for i := len(pw); i > 0; i >>= 1 {
		if i&1 != 0 {
			ctx.Write([]byte{0})
		} else {
			ctx.Write(pw[:1])
		}
	}
	final := ctx.Sum(nil)

	// 1000 strengthening rounds, alternating inputs per the reference
	// implementation.
	for i := 0; i < 1000; i++ {
		c := NewMD5()
		if i&1 != 0 {
			c.Write(pw)
		} else {
			c.Write(final)
		}
		if i%3 != 0 {
			c.Write(sa)
		}
		if i%7 != 0 {
			c.Write(pw)
		}
		if i&1 != 0 {
			c.Write(final)
		} else {
			c.Write(pw)
		}
		final = c.Sum(nil)
	}

	var sb strings.Builder
	sb.WriteString(md5cryptMagic)
	sb.WriteString(salt)
	sb.WriteByte('$')
	// crypt(3)'s permuted 3-byte groups.
	groups := [][3]int{{0, 6, 12}, {1, 7, 13}, {2, 8, 14}, {3, 9, 15}, {4, 10, 5}}
	for _, g := range groups {
		v := uint(final[g[0]])<<16 | uint(final[g[1]])<<8 | uint(final[g[2]])
		to64(&sb, v, 4)
	}
	to64(&sb, uint(final[11]), 2)
	return sb.String()
}

func to64(sb *strings.Builder, v uint, n int) {
	for ; n > 0; n-- {
		sb.WriteByte(itoa64[v&0x3f])
		v >>= 6
	}
}
