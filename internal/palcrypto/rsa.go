package palcrypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// RSAPublicKey is an RSA public key (n, e). Keys come from GenerateRSAKey,
// UnmarshalPublicKey or UnmarshalPrivateKey, which also build the
// Montgomery context the PKCS#1 operations run on. They build it eagerly:
// keys are shared across goroutines (quotes, the CA), so a lazy build would
// race. A key built any other way has Size 0 and every operation refuses it.
type RSAPublicKey struct {
	N *big.Int
	E int

	mont   *montCtx // N's Montgomery context
	nBytes []byte   // N big-endian, Size() bytes, for the c < N checks
}

// RSAPrivateKey is an RSA private key. The PKCS#1 operations use only its
// CRT context; D, P and Q are kept for MarshalPrivateKey.
type RSAPrivateKey struct {
	RSAPublicKey
	D    *big.Int
	P, Q *big.Int

	crt *crtKey
}

// Size returns the modulus length in bytes.
func (k *RSAPublicKey) Size() int { return len(k.nBytes) }

// Zero wipes the private half of the key in place: every limb of the
// private exponent and the primes is overwritten before the big.Ints are
// reset, and the CRT context (the limbs of p, q, dp, dq and qinv) is
// cleared. PALs that recover a sealed key for one session (OpenChannel,
// the CA's issuance path) defer this so the key material is gone before
// the session returns to the untrusted OS — the paper's "erase all traces"
// obligation applied to heap state. The public half (n, e) is released
// anyway and stays intact.
func (k *RSAPrivateKey) Zero() {
	for _, x := range []*big.Int{k.D, k.P, k.Q} {
		if x != nil {
			wipeInt(x)
		}
	}
	if k.crt != nil {
		k.crt.zero()
	}
}

// newPublicKey checks (n, e) and builds the public key with its Montgomery
// context.
func newPublicKey(n *big.Int, e int) (RSAPublicKey, error) {
	if e < 3 || e%2 == 0 {
		return RSAPublicKey{}, errors.New("palcrypto: invalid public exponent")
	}
	if n.BitLen() < 128 {
		return RSAPublicKey{}, errors.New("palcrypto: modulus too small")
	}
	mont := new(montCtx)
	if err := mont.set(n); err != nil {
		return RSAPublicKey{}, err
	}
	return RSAPublicKey{N: n, E: e, mont: mont, nBytes: n.Bytes()}, nil
}

// newPrivateKey builds the private key with its public and CRT contexts.
func newPrivateKey(n *big.Int, e int, d, p, q *big.Int) (*RSAPrivateKey, error) {
	pub, err := newPublicKey(n, e)
	if err != nil {
		return nil, err
	}
	crt, err := newCRTKey(p, q, d)
	if err != nil {
		return nil, err
	}
	return &RSAPrivateKey{RSAPublicKey: pub, D: d, P: p, Q: q, crt: crt}, nil
}

// wipeInt overwrites x's limbs and resets it to zero.
func wipeInt(x *big.Int) {
	clear(x.Bits())
	x.SetInt64(0)
}

var (
	bigOne = big.NewInt(1)
	bigTwo = big.NewInt(2)
)

// GenerateRSAKey generates an RSA keypair of the given modulus bit length
// using entropy from rand. Primes are produced by rejection sampling with
// Miller-Rabin testing (math/big's ProbablyPrime, which is a deterministic
// BPSW + MR combination for our sizes). e is fixed at 65537.
//
// The paper's Secure Channel and CA PALs generate 1024-bit keys inside a
// Flicker session seeded from TPM GetRandom; the key generation latency
// (185.7 ms in Figure 9a) is charged by the timing model, not by this code.
func GenerateRSAKey(rand io.Reader, bits int) (*RSAPrivateKey, error) {
	if bits < 128 || bits > 64*maxLimbs {
		return nil, fmt.Errorf("palcrypto: RSA modulus of %d bits outside [128, %d]", bits, 64*maxLimbs)
	}
	e := 65537
	eBig := big.NewInt(int64(e))
	for attempts := 0; attempts < 1000; attempts++ {
		p, err := genPrime(rand, (bits+1)/2)
		if err != nil {
			return nil, err
		}
		q, err := genPrime(rand, bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, bigOne)
		qm1 := new(big.Int).Sub(q, bigOne)
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int)
		if d.ModInverse(eBig, phi) == nil {
			continue // gcd(e, phi) != 1; pick new primes
		}
		return newPrivateKey(n, e, d, p, q)
	}
	return nil, errors.New("palcrypto: RSA key generation failed to converge")
}

// genPrime returns a random prime of exactly the given bit length: the
// first candidate read from rand that ProbablyPrime(20) accepts. Two cheap
// filters run ahead of it and change no verdict, so the primes are those of
// the plain ProbablyPrime(20) loop. A candidate divisible by an odd prime
// below 2048 is composite (every candidate exceeds 2^15). A candidate that
// fails the base-2 Fermat test also fails the base-2 Miller-Rabin round
// ProbablyPrime always runs.
func genPrime(rand io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, errors.New("palcrypto: prime too small")
	}
	b := make([]byte, (bits+7)/8)
	var p, pm1, fermat big.Int
	for {
		if _, err := io.ReadFull(rand, b); err != nil {
			return nil, err
		}
		shapePrimeCandidate(b, bits)
		if hasSmallFactor(b) {
			continue
		}
		p.SetBytes(b)
		pm1.Sub(&p, bigOne)
		if fermat.Exp(bigTwo, &pm1, &p).Cmp(bigOne) != 0 {
			continue
		}
		if p.ProbablyPrime(20) {
			return new(big.Int).Set(&p), nil
		}
	}
}

// shapePrimeCandidate turns random bytes into an odd candidate of exactly
// bits bits with its second-highest bit set too, so products of two primes
// reach the full modulus length more often.
func shapePrimeCandidate(b []byte, bits int) {
	excess := len(b)*8 - bits
	b[0] &= 0xff >> uint(excess)
	b[0] |= 0x80 >> uint(excess)
	if bits > 17 {
		if excess == 7 {
			b[1] |= 0x80
		} else {
			b[0] |= 0x40 >> uint(excess)
		}
	}
	b[len(b)-1] |= 1
}

// smallPrimeGroups packs the odd primes below 2048 into groups whose
// product fits a uint64, so trial division reduces a candidate once per
// group and tests the group's primes against that 64-bit remainder.
var smallPrimeGroups = func() (groups []smallPrimeGroup) {
	const limit = 2048
	var composite [limit]bool
	g := smallPrimeGroup{prod: 1}
	for q := uint64(3); q < limit; q += 2 {
		if composite[q] {
			continue
		}
		for m := q * q; m < limit; m += 2 * q {
			composite[m] = true
		}
		if hi, _ := bits.Mul64(g.prod, q); hi != 0 {
			groups = append(groups, g)
			g = smallPrimeGroup{prod: 1}
		}
		g.prod *= q
		g.primes = append(g.primes, q)
	}
	return append(groups, g)
}()

type smallPrimeGroup struct {
	prod   uint64
	primes []uint64
}

// hasSmallFactor reports whether the big-endian number b is divisible by an
// odd prime below 2048.
func hasSmallFactor(b []byte) bool {
	head := len(b) % 8
	for _, g := range smallPrimeGroups {
		var r uint64
		for _, c := range b[:head] {
			r = r<<8 | uint64(c)
		}
		r %= g.prod
		for i := head; i < len(b); i += 8 {
			r = bits.Rem64(r, binary.BigEndian.Uint64(b[i:]), g.prod)
		}
		for _, q := range g.primes {
			if r%q == 0 {
				return true
			}
		}
	}
	return false
}

// ErrRSADecryption is returned for any malformed or mis-keyed ciphertext.
// A single error value avoids creating a padding oracle.
var ErrRSADecryption = errors.New("palcrypto: RSA decryption error")

// ErrRSAVerification is returned when a signature does not verify.
var ErrRSAVerification = errors.New("palcrypto: RSA verification error")

// EncryptPKCS1 encrypts msg under pub with PKCS#1 v1.5 (EME, block type 02).
// The paper uses PKCS1 encryption for the password sent to the SSH PAL,
// citing its chosen-ciphertext security and nonmalleability [15].
func EncryptPKCS1(rand io.Reader, pub *RSAPublicKey, msg []byte) ([]byte, error) {
	out := make([]byte, pub.Size())
	if err := EncryptPKCS1To(out, rand, pub, msg); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptPKCS1To is EncryptPKCS1 into a caller buffer of exactly
// pub.Size() bytes. The padded block is built in dst and replaced there by
// the ciphertext, so the TPM's seal path writes the encrypted seed straight
// into its response body. It allocates nothing.
func EncryptPKCS1To(dst []byte, rand io.Reader, pub *RSAPublicKey, msg []byte) error {
	k := pub.Size()
	if len(msg) > k-11 {
		return fmt.Errorf("palcrypto: message too long for a %d-byte RSA modulus", k)
	}
	if len(dst) != k {
		return fmt.Errorf("palcrypto: PKCS1 output buffer is %d bytes, want %d", len(dst), k)
	}
	dst[0] = 0
	dst[1] = 2
	if err := nonzeroRandom(rand, dst[2:k-len(msg)-1]); err != nil {
		return err
	}
	dst[k-len(msg)-1] = 0
	copy(dst[k-len(msg):], msg)
	pub.mont.publicOp(dst, dst, pub.E)
	return nil
}

// nonzeroRandom fills p with nonzero random bytes: the stream's nonzero
// bytes, in order. It reads in bulk and compacts, so it consumes exactly
// the bytes a one-byte-at-a-time rejection loop would.
func nonzeroRandom(rand io.Reader, p []byte) error {
	for len(p) > 0 {
		if _, err := io.ReadFull(rand, p); err != nil {
			return err
		}
		n := 0
		for _, b := range p {
			if b != 0 {
				p[n] = b
				n++
			}
		}
		p = p[n:]
	}
	return nil
}

// DecryptPKCS1 decrypts a PKCS#1 v1.5 ciphertext.
func DecryptPKCS1(priv *RSAPrivateKey, ciphertext []byte) ([]byte, error) {
	return DecryptPKCS1To(make([]byte, priv.Size()), priv, ciphertext)
}

// DecryptPKCS1To is DecryptPKCS1 through a caller scratch buffer of at
// least priv.Size() bytes: the decrypted block is written there and the
// message returned is a subslice of it. The caller owns scrubbing em. It
// allocates nothing.
func DecryptPKCS1To(em []byte, priv *RSAPrivateKey, ciphertext []byte) ([]byte, error) {
	k := priv.Size()
	if len(ciphertext) != k || len(em) < k || bytes.Compare(ciphertext, priv.nBytes) >= 0 {
		return nil, ErrRSADecryption
	}
	em = em[:k]
	priv.crt.privateOp(em, ciphertext)
	if em[0] != 0 || em[1] != 2 {
		return nil, ErrRSADecryption
	}
	// Find the 0x00 separator after at least 8 padding bytes.
	sep := -1
	for i := 2; i < len(em); i++ {
		if em[i] == 0 {
			sep = i
			break
		}
	}
	if sep < 10 {
		return nil, ErrRSADecryption
	}
	return em[sep+1:], nil
}

// sha1DigestInfo is the DER prefix for a SHA-1 DigestInfo (RFC 3447 §9.2).
var sha1DigestInfo = []byte{
	0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e,
	0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
}

// SignPKCS1SHA1 signs the SHA-1 digest of msg with PKCS#1 v1.5 (EMSA).
func SignPKCS1SHA1(priv *RSAPrivateKey, msg []byte) ([]byte, error) {
	sig := make([]byte, priv.Size())
	if err := SignPKCS1SHA1To(sig, priv, msg); err != nil {
		return nil, err
	}
	return sig, nil
}

// SignPKCS1SHA1To is SignPKCS1SHA1 into a caller buffer of exactly
// priv.Size() bytes: the encoded block is built in sig and replaced there by
// the signature. It allocates nothing.
func SignPKCS1SHA1To(sig []byte, priv *RSAPrivateKey, msg []byte) error {
	k := priv.Size()
	tLen := len(sha1DigestInfo) + SHA1Size
	if k < tLen+11 {
		return errors.New("palcrypto: RSA key too small for SHA-1 signature")
	}
	if len(sig) != k {
		return fmt.Errorf("palcrypto: signature buffer is %d bytes, want %d", len(sig), k)
	}
	digest := SHA1Sum(msg)
	sig[0] = 0
	sig[1] = 1
	for i := 2; i < k-tLen-1; i++ {
		sig[i] = 0xff
	}
	sig[k-tLen-1] = 0
	copy(sig[k-tLen:], sha1DigestInfo)
	copy(sig[k-SHA1Size:], digest[:])
	priv.crt.privateOp(sig, sig)
	return nil
}

// VerifyPKCS1SHA1 verifies a PKCS#1 v1.5 SHA-1 signature over msg. The
// recovered block lives on the stack, so it allocates nothing.
func VerifyPKCS1SHA1(pub *RSAPublicKey, msg, sig []byte) error {
	k := pub.Size()
	if len(sig) != k || bytes.Compare(sig, pub.nBytes) >= 0 {
		return ErrRSAVerification
	}
	var buf [8 * maxLimbs]byte
	em := buf[:k]
	pub.mont.publicOp(em, sig, pub.E)
	digest := SHA1Sum(msg)
	tLen := len(sha1DigestInfo) + SHA1Size
	if em[0] != 0 || em[1] != 1 || em[k-tLen-1] != 0 {
		return ErrRSAVerification
	}
	for i := 2; i < k-tLen-1; i++ {
		if em[i] != 0xff {
			return ErrRSAVerification
		}
	}
	if !ConstantTimeEqual(em[k-tLen:k-SHA1Size], sha1DigestInfo) ||
		!ConstantTimeEqual(em[k-SHA1Size:], digest[:]) {
		return ErrRSAVerification
	}
	return nil
}

// MarshalPublicKey serializes a public key into a simple length-prefixed
// wire format (4-byte big-endian lengths) used by the Secure Channel module.
func MarshalPublicKey(pub *RSAPublicKey) []byte {
	nb := pub.N.Bytes()
	out := make([]byte, 0, 8+len(nb))
	out = appendU32(out, uint32(pub.E))
	out = appendU32(out, uint32(len(nb)))
	out = append(out, nb...)
	return out
}

// UnmarshalPublicKey parses the format produced by MarshalPublicKey.
func UnmarshalPublicKey(b []byte) (*RSAPublicKey, error) {
	if len(b) < 8 {
		return nil, errors.New("palcrypto: truncated public key")
	}
	e := int(readU32(b))
	nLen := int(readU32(b[4:]))
	if nLen <= 0 || len(b) != 8+nLen {
		return nil, errors.New("palcrypto: malformed public key")
	}
	pub, err := newPublicKey(new(big.Int).SetBytes(b[8:]), e)
	if err != nil {
		return nil, err
	}
	return &pub, nil
}

// MarshalPrivateKey serializes a private key (for sealed storage only —
// never leaves a PAL unencrypted).
func MarshalPrivateKey(priv *RSAPrivateKey) []byte {
	var out []byte
	out = appendU32(out, uint32(priv.E))
	for _, v := range []*big.Int{priv.N, priv.D, priv.P, priv.Q} {
		vb := v.Bytes()
		out = appendU32(out, uint32(len(vb)))
		out = append(out, vb...)
	}
	return out
}

// UnmarshalPrivateKey parses the format produced by MarshalPrivateKey and
// rebuilds the key's public and CRT contexts.
func UnmarshalPrivateKey(b []byte) (*RSAPrivateKey, error) {
	if len(b) < 4 {
		return nil, errors.New("palcrypto: truncated private key")
	}
	e := int(readU32(b))
	b = b[4:]
	var vals [4]*big.Int
	for i := range vals {
		if len(b) < 4 {
			return nil, errors.New("palcrypto: truncated private key")
		}
		l := int(readU32(b))
		b = b[4:]
		if l < 0 || len(b) < l {
			return nil, errors.New("palcrypto: truncated private key")
		}
		vals[i] = new(big.Int).SetBytes(b[:l])
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, errors.New("palcrypto: trailing bytes in private key")
	}
	n, d, p, q := vals[0], vals[1], vals[2], vals[3]
	if new(big.Int).Mul(p, q).Cmp(n) != 0 {
		return nil, errors.New("palcrypto: inconsistent private key")
	}
	return newPrivateKey(n, e, d, p, q)
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
