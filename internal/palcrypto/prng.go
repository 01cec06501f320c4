package palcrypto

import "encoding/binary"

// PRNG is a deterministic pseudo-random generator built from SHA-1 in
// counter mode. The paper's PALs call TPM GetRandom once for 128 bytes and
// use it "to seed a pseudorandom number generator" (Section 7.4.1); this is
// that generator. Determinism given a seed keeps the whole simulation
// reproducible.
type PRNG struct {
	seed [SHA1Size]byte
	ctr  uint64
	// block holds the current output block; off is how much of it has been
	// consumed. Keeping the block inline (rather than slicing a fresh
	// digest) keeps Read allocation-free — the generator backs every TPM
	// nonce and every PAL RNG on the session hot path.
	block [SHA1Size]byte
	off   int
}

// NewPRNG creates a generator seeded with the given entropy.
func NewPRNG(seed []byte) *PRNG {
	p := &PRNG{}
	p.Reseed(seed)
	return p
}

// Reseed resets the generator to the state NewPRNG(seed) would produce,
// reusing the receiver's storage.
func (p *PRNG) Reseed(seed []byte) {
	p.seed = SHA1Sum(seed)
	p.ctr = 0
	p.off = SHA1Size
}

// Read fills b with pseudo-random bytes. It never fails.
func (p *PRNG) Read(b []byte) (int, error) {
	n := len(b)
	for len(b) > 0 {
		if p.off == SHA1Size {
			if len(b) >= SHA1Size {
				p.next((*[SHA1Size]byte)(b))
				b = b[SHA1Size:]
				continue
			}
			p.next(&p.block)
			p.off = 0
		}
		c := copy(b, p.block[p.off:])
		p.off += c
		b = b[c:]
	}
	return n, nil
}

// Seek positions the generator at byte off of its output stream, so the
// next Read returns what Bytes(off+n)[off:] would. The stream is SHA-1 in
// counter mode, so byte off is byte off%20 of block off/20 and seeking
// costs at most one block.
func (p *PRNG) Seek(off int) {
	p.ctr = uint64(off / SHA1Size)
	p.off = SHA1Size
	if r := off % SHA1Size; r != 0 {
		p.next(&p.block)
		p.off = r
	}
}

// next writes output block ctr, SHA1(seed‖ctr), into out and advances ctr.
// The 28-byte message always pads to a single 64-byte block, so it
// compresses that block directly rather than streaming through Write and
// Sum.
func (p *PRNG) next(out *[SHA1Size]byte) {
	var blk [SHA1BlockSize]byte
	copy(blk[:], p.seed[:])
	binary.BigEndian.PutUint64(blk[SHA1Size:], p.ctr)
	blk[SHA1Size+8] = 0x80
	binary.BigEndian.PutUint64(blk[SHA1BlockSize-8:], (SHA1Size+8)*8)
	p.ctr++
	var s SHA1
	s.Reset()
	s.block(blk[:])
	for i, v := range s.h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
}

// Bytes returns n fresh pseudo-random bytes.
func (p *PRNG) Bytes(n int) []byte {
	out := make([]byte, n)
	p.Read(out)
	return out
}

// Uint64 returns a pseudo-random 64-bit value.
func (p *PRNG) Uint64() uint64 {
	var b [8]byte
	p.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("palcrypto: Intn with non-positive bound")
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := p.Uint64()
		if v < max {
			return int(v % uint64(n))
		}
	}
}
