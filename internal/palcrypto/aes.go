package palcrypto

import (
	"encoding/binary"
	"fmt"
)

// aesSbox is computed at init from the AES field inverse and affine map, so
// the table is derived rather than transcribed.
var aesSbox = func() (s [256]byte) {
	// Multiplicative inverse in GF(2^8) via exponentiation tables.
	var exp [256]byte
	var log [256]byte
	x := byte(1)
	for i := 0; i < 256; i++ {
		exp[i%255] = x
		log[x] = byte(i % 255)
		x = gmul(x, 3)
	}
	invOf := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return exp[(255-int(log[b]))%255]
	}
	for i := 0; i < 256; i++ {
		v := invOf(byte(i))
		// Affine transformation.
		r := v ^ rotl8(v, 1) ^ rotl8(v, 2) ^ rotl8(v, 3) ^ rotl8(v, 4) ^ 0x63
		s[i] = r
	}
	return
}()

// aesRcon holds the key-schedule round constants x^(i) in GF(2^8), derived
// at init like the S-box so key expansion never runs gmul.
var aesRcon = func() (r [10]byte) {
	x := byte(1)
	for i := range r {
		r[i] = x
		x = gmul(x, 2)
	}
	return
}()

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// gmul multiplies two elements of GF(2^8) with the AES polynomial 0x11b.
// It branches on its operands, so it only derives the init-time tables;
// the round functions use xtime.
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// AES is an AES-128/192/256 block cipher (FIPS 197). Only the block
// operation is exposed; modes (CTR, CBC-MAC style use) are built on top.
//
// The key schedule is held by value, so an AES embedded in a longer-lived
// struct (the TPM's envelope scratch) keys and rekeys without touching the
// heap; Zero wipes it.
type AES struct {
	enc [15][4]uint32 // round keys as columns; rounds 0..nr are used
	nr  int
}

// SetKey expands a 16-, 24-, or 32-byte key into the receiver's schedule.
// Rounds a shorter key leaves unused are cleared, so rekeying never keeps
// a tail of the previous schedule.
func (a *AES) SetKey(key []byte) error {
	var nk, nr int
	switch len(key) {
	case 16:
		nk, nr = 4, 10
	case 24:
		nk, nr = 6, 12
	case 32:
		nk, nr = 8, 14
	default:
		return fmt.Errorf("palcrypto: invalid AES key size %d", len(key))
	}
	*a = AES{nr: nr}
	// Key expansion over words, written straight into the round-key
	// columns: word i is column i%4 of round i/4.
	nw := 4 * (nr + 1)
	for i := 0; i < nk; i++ {
		a.enc[i/4][i%4] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := nk; i < nw; i++ {
		t := a.enc[(i-1)/4][(i-1)%4]
		if i%nk == 0 {
			t = subWord(t<<8|t>>24) ^ uint32(aesRcon[i/nk-1])<<24
		} else if nk > 6 && i%nk == 4 {
			t = subWord(t)
		}
		a.enc[i/4][i%4] = a.enc[(i-nk)/4][(i-nk)%4] ^ t
	}
	return nil
}

// Zero wipes the key schedule.
func (a *AES) Zero() { *a = AES{} }

func subWord(x uint32) uint32 {
	return uint32(aesSbox[x>>24])<<24 | uint32(aesSbox[x>>16&0xff])<<16 |
		uint32(aesSbox[x>>8&0xff])<<8 | uint32(aesSbox[x&0xff])
}

// state is the AES 4x4 byte state, column-major as in FIPS 197.
type aesState [16]byte

func (a *AES) addRoundKey(s *aesState, r int) {
	for c := 0; c < 4; c++ {
		k := a.enc[r][c]
		s[4*c+0] ^= byte(k >> 24)
		s[4*c+1] ^= byte(k >> 16)
		s[4*c+2] ^= byte(k >> 8)
		s[4*c+3] ^= byte(k)
	}
}

// Encrypt encrypts one 16-byte block from src into dst (may alias).
func (a *AES) Encrypt(dst, src []byte) {
	if len(src) < 16 || len(dst) < 16 {
		panic("palcrypto: AES block too short")
	}
	var s aesState
	copy(s[:], src[:16])
	a.addRoundKey(&s, 0)
	for r := 1; r < a.nr; r++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		a.addRoundKey(&s, r)
	}
	subBytes(&s)
	shiftRows(&s)
	a.addRoundKey(&s, a.nr)
	copy(dst[:16], s[:])
}

func subBytes(s *aesState) {
	for i := range s {
		s[i] = aesSbox[s[i]]
	}
}

// shiftRows operates on the column-major layout: byte (row r, col c) is at
// index 4*c+r, and row r rotates left by r columns.
func shiftRows(s *aesState) {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

// xtime multiplies by x in GF(2^8) without branching: the reduction by
// 0x1b is masked in from the high bit, so the round functions take the
// same path whatever the state holds.
func xtime(b byte) byte { return b<<1 ^ 0x1b&-(b>>7) }

// mixColumns multiplies each column by {03}x^3+{01}x^2+{01}x+{02}, written
// as a ^ t ^ xtime(a ^ next) with t the XOR of the whole column.
func mixColumns(s *aesState) {
	for c := 0; c < 4; c++ {
		col := s[4*c : 4*c+4]
		a0, a1, a2, a3 := col[0], col[1], col[2], col[3]
		t := a0 ^ a1 ^ a2 ^ a3
		col[0] = a0 ^ t ^ xtime(a0^a1)
		col[1] = a1 ^ t ^ xtime(a1^a2)
		col[2] = a2 ^ t ^ xtime(a2^a3)
		col[3] = a3 ^ t ^ xtime(a3^a0)
	}
}

// CTRKeystream XORs data with the AES-CTR keystream for the given 16-byte
// IV, in place. CTR is used by the distributed-computing PAL to encrypt
// checkpointed state under its sealed symmetric key.
func (a *AES) CTRKeystream(iv [16]byte, data []byte) {
	var ctr, ks [16]byte
	ctr = iv
	for off := 0; off < len(data); off += 16 {
		a.Encrypt(ks[:], ctr[:])
		n := len(data) - off
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			data[off+i] ^= ks[i]
		}
		// Increment the counter big-endian.
		for i := 15; i >= 0; i-- {
			ctr[i]++
			if ctr[i] != 0 {
				break
			}
		}
	}
}
