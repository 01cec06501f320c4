package palcrypto

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"testing"
)

// refStream is the generator's definition: SHA-1(SHA-1(seed) ‖ ctr) for
// ctr = 0, 1, ..., computed with the standard library.
func refStream(seed []byte, n int) []byte {
	key := sha1.Sum(seed)
	var out []byte
	for ctr := uint64(0); len(out) < n; ctr++ {
		var in [SHA1Size + 8]byte
		copy(in[:], key[:])
		binary.BigEndian.PutUint64(in[SHA1Size:], ctr)
		blk := sha1.Sum(in[:])
		out = append(out, blk[:]...)
	}
	return out[:n]
}

// However Read's calls are sized (inside a block, across blocks, whole
// blocks straight into the caller's slice), the output is the counter-mode
// stream.
func TestPRNGMatchesCounterMode(t *testing.T) {
	seed := []byte("prng-ref")
	want := refStream(seed, 1000)
	for _, chunk := range []int{1, 7, 19, 20, 21, 40, 63, 1000} {
		p := NewPRNG(seed)
		var got []byte
		for len(got) < len(want) {
			b := make([]byte, min(chunk, len(want)-len(got)))
			p.Read(b)
			got = append(got, b...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reads of %d bytes diverge from the counter-mode stream", chunk)
		}
	}
}

// Seek(off) followed by Read(n) returns Bytes(off+n)[off:] for every offset
// in the first ten blocks and lengths around the block size, whatever the
// generator had read before the seek.
func TestPRNGSeek(t *testing.T) {
	seed := []byte("prng-seek")
	stream := NewPRNG(seed).Bytes(300)
	p := NewPRNG(seed)
	for off := 0; off <= 200; off++ {
		for _, n := range []int{0, 1, 5, 19, 20, 21, 40, 77} {
			p.Read(make([]byte, off%23)) // leave the generator mid-stream
			p.Seek(off)
			got := make([]byte, n)
			p.Read(got)
			if !bytes.Equal(got, stream[off:off+n]) {
				t.Fatalf("Seek(%d)+Read(%d) = %x, want %x", off, n, got, stream[off:off+n])
			}
		}
	}
}

func TestPRNGReadAllocs(t *testing.T) {
	p := NewPRNG([]byte("allocs"))
	var buf [100]byte
	if n := testing.AllocsPerRun(100, func() { p.Read(buf[:]) }); n != 0 {
		t.Fatalf("Read allocated %v times, want 0", n)
	}
}

func BenchmarkPRNGRead(b *testing.B) {
	for _, n := range []int{20, 4096} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			p := NewPRNG([]byte("bench"))
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				p.Read(buf)
			}
		})
	}
}
