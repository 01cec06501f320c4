// Package palcrypto is the from-scratch cryptographic module library that a
// PAL links against, mirroring the paper's "Crypto" module (Figure 6). It
// keeps what a PAL here runs: RSA, SHA-1, MD5 and md5crypt, HMAC, AES
// encryption and CTR, and the PRNG. Everything here
// is implemented directly from the relevant specifications rather than
// delegating to crypto/*, because in the real system this code *is* part of
// the measured TCB and its size is part of the paper's accounting.
//
// The implementations are tested against FIPS / RFC test vectors and
// cross-checked against the standard library in the test suite.
package palcrypto

import "encoding/binary"

// SHA1Size is the size of a SHA-1 digest in bytes.
const SHA1Size = 20

// SHA1BlockSize is the block size of SHA-1 in bytes.
const SHA1BlockSize = 64

// SHA1 is a streaming SHA-1 hash (FIPS 180-4). The zero value is NOT ready
// to use; call NewSHA1.
type SHA1 struct {
	h   [5]uint32
	x   [SHA1BlockSize]byte
	nx  int
	len uint64
}

// NewSHA1 returns a new SHA-1 hash state.
func NewSHA1() *SHA1 {
	s := &SHA1{}
	s.Reset()
	return s
}

// Reset returns the hash to its initial state.
func (s *SHA1) Reset() {
	s.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	s.nx = 0
	s.len = 0
}

// Write absorbs p into the hash state. It never fails.
func (s *SHA1) Write(p []byte) (int, error) {
	n := len(p)
	s.len += uint64(n)
	if s.nx > 0 {
		c := copy(s.x[s.nx:], p)
		s.nx += c
		if s.nx == SHA1BlockSize {
			s.block(s.x[:])
			s.nx = 0
		}
		p = p[c:]
	}
	if full := len(p) &^ (SHA1BlockSize - 1); full > 0 {
		s.block(p[:full])
		p = p[full:]
	}
	if len(p) > 0 {
		s.nx = copy(s.x[:], p)
	}
	return n, nil
}

// Sum appends the current digest to b without disturbing the running state.
func (s *SHA1) Sum(b []byte) []byte {
	var out [SHA1Size]byte
	s.sumInto(&out)
	return append(b, out[:]...)
}

// SumInto writes the current digest into out without disturbing the running
// state and without touching the heap — the hot-path form of Sum for the
// per-command digests a warm session computes dozens of times.
func (s *SHA1) SumInto(out *[SHA1Size]byte) { s.sumInto(out) }

func (s *SHA1) sumInto(out *[SHA1Size]byte) {
	d := *s // copy so callers can keep writing
	var pad [SHA1BlockSize + 8]byte
	pad[0] = 0x80
	msgLen := d.len
	var padLen int
	if rem := int(msgLen % SHA1BlockSize); rem < 56 {
		padLen = 56 - rem
	} else {
		padLen = 64 + 56 - rem
	}
	d.Write(pad[:padLen])
	var lenBytes [8]byte
	binary.BigEndian.PutUint64(lenBytes[:], msgLen<<3)
	d.Write(lenBytes[:])
	if d.nx != 0 {
		panic("palcrypto: sha1 padding error")
	}
	for i, v := range d.h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
}

// Size returns SHA1Size.
func (s *SHA1) Size() int { return SHA1Size }

// BlockSize returns SHA1BlockSize.
func (s *SHA1) BlockSize() int { return SHA1BlockSize }

// Round constants, one per 20-round group (FIPS 180-4 §4.2.1).
const (
	sha1K0 = 0x5A827999
	sha1K1 = 0x6ED9EBA1
	sha1K2 = 0x8F1BBCDC
	sha1K3 = 0xCA62C1D6
)

// block compresses one or more full 64-byte blocks of p into the state. The
// message schedule is precomputed per 20-round group and the round switch is
// split into four straight-line loops so the round function and constant are
// compile-time known in each — this function dominates SKINIT measurement
// cost, so it is the hottest code in the whole simulator.
func (s *SHA1) block(p []byte) {
	var w [80]uint32
	h0, h1, h2, h3, h4 := s.h[0], s.h[1], s.h[2], s.h[3], s.h[4]
	for len(p) >= SHA1BlockSize {
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(p[i*4:])
		}
		for i := 16; i < 80; i++ {
			t := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
			w[i] = t<<1 | t>>31
		}
		a, b, c, d, e := h0, h1, h2, h3, h4
		for i := 0; i < 20; i++ {
			f := (b & c) | (^b & d)
			t := (a<<5 | a>>27) + f + e + sha1K0 + w[i]
			e, d, c, b, a = d, c, (b<<30 | b>>2), a, t
		}
		for i := 20; i < 40; i++ {
			f := b ^ c ^ d
			t := (a<<5 | a>>27) + f + e + sha1K1 + w[i]
			e, d, c, b, a = d, c, (b<<30 | b>>2), a, t
		}
		for i := 40; i < 60; i++ {
			f := (b & c) | (b & d) | (c & d)
			t := (a<<5 | a>>27) + f + e + sha1K2 + w[i]
			e, d, c, b, a = d, c, (b<<30 | b>>2), a, t
		}
		for i := 60; i < 80; i++ {
			f := b ^ c ^ d
			t := (a<<5 | a>>27) + f + e + sha1K3 + w[i]
			e, d, c, b, a = d, c, (b<<30 | b>>2), a, t
		}
		h0 += a
		h1 += b
		h2 += c
		h3 += d
		h4 += e
		p = p[SHA1BlockSize:]
	}
	s.h[0], s.h[1], s.h[2], s.h[3], s.h[4] = h0, h1, h2, h3, h4
}

// SHA1Sum computes the SHA-1 digest of data in one shot. The state lives on
// the caller's stack, so a one-shot digest costs no heap allocation.
func SHA1Sum(data []byte) [SHA1Size]byte {
	var s SHA1
	s.Reset()
	s.Write(data)
	var out [SHA1Size]byte
	s.sumInto(&out)
	return out
}
