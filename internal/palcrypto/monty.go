package palcrypto

import (
	"errors"
	"math/big"
	"math/bits"
)

// maxLimbs is the kernel's fixed width: 32 64-bit limbs, so moduli of up to
// 2048 bits.
const maxLimbs = 32

// nat is a fixed-width number in little-endian 64-bit limbs. The RSA kernel
// keeps every value in one of these on the stack, so a PKCS#1 operation
// allocates nothing. Limbs at and above a context's width stay zero.
type nat [maxLimbs]uint64

// natOne is 1; a Montgomery multiplication by it leaves Montgomery form.
var natOne = nat{1}

var errModulus = errors.New("palcrypto: RSA modulus must be odd, at least 3 and at most 2048 bits")

// montCtx is the Montgomery context of one odd modulus m of n limbs, with
// R = 2^(64n). Everything in it is fixed when the key is built.
type montCtx struct {
	m     nat    // the modulus
	rr    nat    // R² mod m: a multiplication by it maps x to x·R
	m0inv uint64 // −m⁻¹ mod 2⁶⁴
	n     int    // limb width of m
}

// set builds the context for m. Montgomery multiplication needs an odd
// modulus, and the fixed width bounds its size.
func (c *montCtx) set(m *big.Int) error {
	if m.Bit(0) == 0 || m.BitLen() < 2 || m.BitLen() > 64*maxLimbs {
		return errModulus
	}
	c.n = (m.BitLen() + 63) / 64
	c.m.setBig(m)
	rr := new(big.Int).Lsh(bigOne, uint(128*c.n))
	c.rr.setBig(rr.Mod(rr, m))
	wipeInt(rr)
	// An odd m0 is its own inverse mod 8, and each Newton step doubles the
	// correct low bits: 3, 6, 12, 24, 48, 96.
	inv := c.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - c.m[0]*inv
	}
	c.m0inv = -inv
	return nil
}

// setBig loads x, which must fit maxLimbs, through a stack buffer it wipes.
func (z *nat) setBig(x *big.Int) {
	var buf [8 * maxLimbs]byte
	z.setBytes(x.FillBytes(buf[:]))
	clear(buf[:])
}

// setBytes loads the big-endian b, at most 8·maxLimbs bytes long.
func (z *nat) setBytes(b []byte) {
	*z = nat{}
	for i, v := range b {
		j := len(b) - 1 - i
		z[j/8] |= uint64(v) << (8 * (j % 8))
	}
}

// fillBytes writes the low len(dst) bytes of x into dst, big-endian.
func fillBytes(dst []byte, x []uint64) {
	for i := range dst {
		j := len(dst) - 1 - i
		dst[i] = byte(x[j/8] >> (8 * (j % 8)))
	}
}

// mul sets z = x·y·R⁻¹ mod m by CIOS Montgomery multiplication, with the
// multiply and reduce steps of each row fused into one pass. It needs
// x·y < m·R, which holds when both are below m, or when one is below m and
// the other below R. z may alias x or y. Its row buffer is wiped.
func (c *montCtx) mul(z, x, y *nat) {
	n := c.n
	m, xs := c.m[:n], x[:n]
	var t [maxLimbs + 1]uint64
	ts := t[:n]
	for _, yi := range y[:n] {
		// t = (t + x·yi + q·m) / 2⁶⁴, with q chosen to clear the low limb.
		// c1 carries the x·yi column sums and c2 the q·m ones.
		c1, lo := bits.Mul64(xs[0], yi)
		lo, cc := bits.Add64(lo, ts[0], 0)
		c1 += cc
		q := lo * c.m0inv
		c2, lo2 := bits.Mul64(m[0], q)
		_, cc = bits.Add64(lo2, lo, 0)
		c2 += cc
		for j := 1; j < n; j++ {
			hi, lo := bits.Mul64(xs[j], yi)
			lo, cc = bits.Add64(lo, ts[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c1, 0)
			c1 = hi + cc
			hi, lo2 := bits.Mul64(m[j], q)
			lo2, cc = bits.Add64(lo2, lo, 0)
			hi += cc
			ts[j-1], cc = bits.Add64(lo2, c2, 0)
			c2 = hi + cc
		}
		top, cc := bits.Add64(t[n], c1, 0)
		ts[n-1], c2 = bits.Add64(top, c2, 0)
		t[n] = cc + c2
	}
	c.condSub(z, (*nat)(t[:maxLimbs]), t[n])
	clear(t[:n+1])
}

// condSub sets z to hi:t − m when hi:t ≥ m and to t otherwise, with a mask
// rather than a branch, so the time does not tell which. It needs
// hi:t < 2m. z must not alias t.
func (c *montCtx) condSub(z, t *nat, hi uint64) {
	n := c.n
	zs, ts, m := z[:n], t[:n], c.m[:n]
	var borrow uint64
	for j := range zs {
		zs[j], borrow = bits.Sub64(ts[j], m[j], borrow)
	}
	// hi:t ≥ m unless the subtraction borrowed with nothing in hi.
	keep := -(hi | (borrow ^ 1))
	for j := range zs {
		zs[j] = ts[j] ^ keep&(ts[j]^zs[j])
	}
}

// add sets z = x + y mod m for x, y < m.
func (c *montCtx) add(z, x, y *nat) {
	var s nat
	var carry uint64
	for j := 0; j < c.n; j++ {
		s[j], carry = bits.Add64(x[j], y[j], carry)
	}
	c.condSub(z, &s, carry)
	clear(s[:])
}

// sub sets z = x − y mod m for x, y < m. z may alias x or y.
func (c *montCtx) sub(z, x, y *nat) {
	var borrow uint64
	for j := 0; j < c.n; j++ {
		z[j], borrow = bits.Sub64(x[j], y[j], borrow)
	}
	mask := -borrow
	var carry uint64
	for j := 0; j < c.n; j++ {
		z[j], carry = bits.Add64(z[j], c.m[j]&mask, carry)
	}
}

// reduce sets z to x·R mod m, the Montgomery form of x mod m, for an x of
// xn limbs, which may be wider than m. It folds x in from the top, n limbs
// at a time (z ← z·R + chunk·R), so the work depends only on the widths.
func (c *montCtx) reduce(z, x *nat, xn int) {
	var acc, chunk nat
	for lo := (xn - 1) / c.n * c.n; lo >= 0; lo -= c.n {
		clear(chunk[:])
		copy(chunk[:c.n], x[lo:])
		c.mul(&acc, &acc, &c.rr)
		c.mul(&chunk, &chunk, &c.rr)
		c.add(&acc, &acc, &chunk)
	}
	*z = acc
	clear(acc[:])
	clear(chunk[:])
}

// exp sets z = x^e in Montgomery form, for x in Montgomery form and a
// secret e of at most n limbs. It uses fixed 4-bit windows over all 64n
// bits of e, whatever e's bit length, and reads every table entry for each
// window, so neither the multiplication count nor the memory access
// pattern depends on e. The table and the accumulator are wiped.
func (c *montCtx) exp(z, x, e *nat) {
	var table [16]nat
	var acc, t nat
	c.mul(&table[0], &c.rr, &natOne) // R mod m, the Montgomery form of 1
	table[1] = *x
	for i := 2; i < len(table); i++ {
		c.mul(&table[i], &table[i-1], &table[1])
	}
	acc = table[0]
	for i := 16*c.n - 1; i >= 0; i-- {
		c.mul(&acc, &acc, &acc)
		c.mul(&acc, &acc, &acc)
		c.mul(&acc, &acc, &acc)
		c.mul(&acc, &acc, &acc)
		c.lookup(&t, &table, e[i/16]>>(4*(i%16))&0xf)
		c.mul(&acc, &acc, &t)
	}
	*z = acc
	clear(table[:])
	clear(acc[:])
	clear(t[:])
}

// lookup sets z = table[w], reading every entry under a mask.
func (c *montCtx) lookup(z *nat, table *[16]nat, w uint64) {
	clear(z[:])
	n := c.n
	zs := z[:n]
	for i := range table {
		d := uint64(i) ^ w
		mask := ((d | -d) >> 63) - 1 // all ones iff i == w
		for j, v := range table[i][:n] {
			zs[j] |= v & mask
		}
	}
}

// publicOp writes x^e mod m into dst, big-endian, for the big-endian x < m.
// e is public, so this is plain square-and-multiply over its bits; the
// value, which holds a padded message when encrypting, is wiped.
func (c *montCtx) publicOp(dst, x []byte, e int) {
	var a, acc nat
	a.setBytes(x)
	c.mul(&a, &a, &c.rr)
	acc = a
	for i := bits.Len(uint(e)) - 2; i >= 0; i-- {
		c.mul(&acc, &acc, &acc)
		if e>>i&1 == 1 {
			c.mul(&acc, &acc, &a)
		}
	}
	c.mul(&acc, &acc, &natOne)
	fillBytes(dst, acc[:])
	clear(a[:])
	clear(acc[:])
}

// crtKey is a private key's CRT context: the Montgomery contexts of p and
// q and the limbs of dp = d mod (p−1), dq = d mod (q−1) and
// qinv = q⁻¹ mod p.
type crtKey struct {
	p, q         montCtx
	dp, dq, qinv nat
}

// newCRTKey builds the CRT context of the key (p, q, d). The big.Int
// temporaries it derives are wiped.
func newCRTKey(p, q, d *big.Int) (*crtKey, error) {
	k := new(crtKey)
	if err := k.p.set(p); err != nil {
		return nil, err
	}
	if err := k.q.set(q); err != nil {
		k.zero()
		return nil, err
	}
	qinv := new(big.Int).ModInverse(q, p)
	if qinv == nil {
		k.zero()
		return nil, errors.New("palcrypto: inconsistent private key")
	}
	pm1 := new(big.Int).Sub(p, bigOne)
	qm1 := new(big.Int).Sub(q, bigOne)
	dp := new(big.Int).Mod(d, pm1)
	dq := new(big.Int).Mod(d, qm1)
	k.dp.setBig(dp)
	k.dq.setBig(dq)
	k.qinv.setBig(qinv)
	for _, x := range []*big.Int{qinv, pm1, qm1, dp, dq} {
		wipeInt(x)
	}
	return k, nil
}

// zero wipes every limb of the context.
func (k *crtKey) zero() { *k = crtKey{} }

// privateOp writes x^d mod pq into dst, big-endian, for the big-endian
// x < pq, by CRT (Garner): m1 = x^dp mod p, m2 = x^dq mod q,
// h = qinv·(m1 − m2) mod p, result m2 + h·q. Every step runs over the
// public limb widths, and the halves are wiped before return.
func (k *crtKey) privateOp(dst, x []byte) {
	var c, m1, m2, h nat
	c.setBytes(x)
	xn := (len(x) + 7) / 8
	k.p.reduce(&m1, &c, xn)
	k.p.exp(&m1, &m1, &k.dp)
	k.q.reduce(&m2, &c, xn)
	k.q.exp(&m2, &m2, &k.dq)
	k.q.mul(&m2, &m2, &natOne)
	k.p.reduce(&h, &m2, k.q.n)
	k.p.sub(&h, &m1, &h)     // (m1 − m2)·R mod p
	k.p.mul(&h, &h, &k.qinv) // qinv·(m1 − m2) mod p
	// out = m2 + h·q; it is below pq, so the width np+nq is enough.
	var out [2 * maxLimbs]uint64
	for i := 0; i < k.p.n; i++ {
		var carry, cc uint64
		for j := 0; j < k.q.n; j++ {
			hi, lo := bits.Mul64(h[i], k.q.m[j])
			lo, cc = bits.Add64(lo, out[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, carry, 0)
			out[i+j], carry = lo, hi+cc
		}
		out[i+k.q.n] = carry
	}
	var carry uint64
	for j := range m2 {
		out[j], carry = bits.Add64(out[j], m2[j], carry)
	}
	out[maxLimbs] += carry
	fillBytes(dst, out[:])
	clear(c[:])
	clear(m1[:])
	clear(m2[:])
	clear(h[:])
	clear(out[:])
}
