package palcrypto

import (
	"bytes"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// kernelKeys generates, once per test binary, one key per size the
// differential tests cover. The odd sizes matter: a 513-bit key has a
// 5-limb p and a 4-limb q, so a 9-limb ciphertext is wider than 2·k_q limbs
// and the reduction mod q must fold in three chunks; 767 bits puts p and q
// one bit apart in the same limb count.
var kernelKeys = sync.OnceValues(func() ([]*RSAPrivateKey, error) {
	var keys []*RSAPrivateKey
	for _, bits := range []int{512, 513, 767, 1024, 2048} {
		key, err := GenerateRSAKey(NewPRNG([]byte("kernel-diff")), bits)
		if err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	return keys, nil
})

func testKernelKeys(tb testing.TB) []*RSAPrivateKey {
	tb.Helper()
	keys, err := kernelKeys()
	if err != nil {
		tb.Fatalf("GenerateRSAKey: %v", err)
	}
	return keys
}

// bigExp returns x^e mod n from math/big as k big-endian bytes.
func bigExp(x, e, n *big.Int, k int) []byte {
	return new(big.Int).Exp(x, e, n).FillBytes(make([]byte, k))
}

// pkcs1Block builds a PKCS#1 v1.5 block of k bytes by hand: 00 bt pad 00 msg.
func pkcs1Block(k int, bt byte, pad byte, msg []byte) []byte {
	b := bytes.Repeat([]byte{pad}, k)
	b[0], b[1] = 0, bt
	b[k-len(msg)-1] = 0
	copy(b[k-len(msg):], msg)
	return b
}

func TestModExpMatchesBig(t *testing.T) {
	rng := NewPRNG([]byte("kernel-inputs"))
	for _, key := range testKernelKeys(t) {
		n, k := key.N, key.Size()
		e := big.NewInt(int64(key.E))
		t.Run(fmt.Sprint(n.BitLen()), func(t *testing.T) {
			inputs := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, bigOne)}
			for i := 0; i < 8; i++ {
				inputs = append(inputs, new(big.Int).Mod(new(big.Int).SetBytes(rng.Bytes(k)), n))
			}
			got := make([]byte, k)
			for _, x := range inputs {
				xb := x.FillBytes(make([]byte, k))
				key.mont.publicOp(got, xb, key.E)
				if want := bigExp(x, e, n, k); !bytes.Equal(got, want) {
					t.Errorf("x^e mod n differs from math/big for x = %x", xb)
				}
				key.crt.privateOp(got, xb)
				if want := bigExp(x, key.D, n, k); !bytes.Equal(got, want) {
					t.Errorf("x^d mod n (CRT) differs from math/big for x = %x", xb)
				}
			}

			msg := []byte("differential")
			// Encrypt: math/big's private exponentiation recovers the block.
			ct, err := EncryptPKCS1(rng, &key.RSAPublicKey, msg)
			if err != nil {
				t.Fatal(err)
			}
			em := bigExp(new(big.Int).SetBytes(ct), key.D, n, k)
			if em[0] != 0 || em[1] != 2 || !bytes.HasSuffix(em, append([]byte{0}, msg...)) {
				t.Errorf("math/big decrypts the kernel's ciphertext to %x", em)
			}
			// Decrypt: a ciphertext math/big made opens.
			block := pkcs1Block(k, 2, 0x5a, msg)
			pt, err := DecryptPKCS1(key, bigExp(new(big.Int).SetBytes(block), e, n, k))
			if err != nil || !bytes.Equal(pt, msg) {
				t.Errorf("DecryptPKCS1 of a math/big ciphertext = %q, %v", pt, err)
			}
			// Sign and verify against math/big's signature of the same block.
			digest := SHA1Sum(msg)
			block = pkcs1Block(k, 1, 0xff, append(append([]byte(nil), sha1DigestInfo...), digest[:]...))
			want := bigExp(new(big.Int).SetBytes(block), key.D, n, k)
			sig, err := SignPKCS1SHA1(key, msg)
			if err != nil || !bytes.Equal(sig, want) {
				t.Errorf("SignPKCS1SHA1 differs from math/big: %v", err)
			}
			if err := VerifyPKCS1SHA1(&key.RSAPublicKey, msg, want); err != nil {
				t.Errorf("math/big's signature does not verify: %v", err)
			}
		})
	}
}

// kernelExp runs the constant-time path on one odd modulus m: reduce x,
// raise it to e in Montgomery form, leave Montgomery form.
func kernelExp(m *big.Int, x, e []byte) ([]byte, error) {
	var c montCtx
	if err := c.set(m); err != nil {
		return nil, err
	}
	var xn, en, r nat
	xn.setBytes(x)
	en.setBytes(e)
	c.reduce(&r, &xn, (len(x)+7)/8)
	c.exp(&r, &r, &en)
	c.mul(&r, &r, &natOne)
	out := make([]byte, 8*c.n)
	fillBytes(out, r[:])
	return out, nil
}

// FuzzRSAKernel compares the kernel with big.Int.Exp on fuzzed odd moduli,
// bases of any width up to 2048 bits and exponents up to the modulus
// width, then runs the public and CRT paths of two fixed keys on the same
// base.
func FuzzRSAKernel(f *testing.F) {
	keys := testKernelKeys(f)
	ones := bytes.Repeat([]byte{0xff}, 8*maxLimbs)
	f.Add([]byte{7}, []byte{5}, []byte{3})
	f.Add(keys[1].N.Bytes(), ones, keys[1].D.Bytes())
	f.Add(keys[0].P.Bytes(), keys[0].N.Bytes(), []byte{})
	f.Add(ones, ones, ones)
	f.Fuzz(func(t *testing.T, mod, x, e []byte) {
		if len(x) > 8*maxLimbs {
			x = x[:8*maxLimbs]
		}
		m := new(big.Int).SetBytes(mod)
		m.SetBit(m, 0, 1)
		if m.BitLen() >= 2 && m.BitLen() <= 64*maxLimbs {
			if n := 8 * ((m.BitLen() + 63) / 64); len(e) > n {
				e = e[:n]
			}
			got, err := kernelExp(m, x, e)
			if err != nil {
				t.Fatalf("odd %d-bit modulus refused: %v", m.BitLen(), err)
			}
			want := bigExp(new(big.Int).SetBytes(x), new(big.Int).SetBytes(e), m, len(got))
			if !bytes.Equal(got, want) {
				t.Fatalf("kernel %x, math/big %x", got, want)
			}
		}
		for _, key := range keys[:2] {
			k := key.Size()
			xb := new(big.Int).Mod(new(big.Int).SetBytes(x), key.N).FillBytes(make([]byte, k))
			got := make([]byte, k)
			key.mont.publicOp(got, xb, key.E)
			if want := bigExp(new(big.Int).SetBytes(xb), big.NewInt(int64(key.E)), key.N, k); !bytes.Equal(got, want) {
				t.Fatalf("public op: kernel %x, math/big %x", got, want)
			}
			key.crt.privateOp(got, xb)
			if want := bigExp(new(big.Int).SetBytes(xb), key.D, key.N, k); !bytes.Equal(got, want) {
				t.Fatalf("CRT op: kernel %x, math/big %x", got, want)
			}
		}
	})
}

// wideModulus is odd and 2059 bits wide, past the kernel's maxLimbs.
func wideModulus() *big.Int {
	n := new(big.Int).Lsh(bigOne, 64*maxLimbs+10)
	return n.Add(n, bigOne)
}

func TestPrivateKeyUnsupportedModulusRefused(t *testing.T) {
	key := testKey(t)
	// Each case keeps p·q = n, so only the modulus check can refuse it.
	for _, c := range []struct {
		name    string
		n, p, q *big.Int
	}{
		{"even", new(big.Int).Lsh(key.Q, 1), big.NewInt(2), key.Q},
		{"wider than maxLimbs", wideModulus(), wideModulus(), bigOne},
	} {
		raw := MarshalPrivateKey(&RSAPrivateKey{RSAPublicKey: RSAPublicKey{N: c.n, E: 65537}, D: key.D, P: c.p, Q: c.q})
		if _, err := UnmarshalPrivateKey(raw); err == nil {
			t.Errorf("UnmarshalPrivateKey accepted an %s modulus", c.name)
		}
	}
	if _, err := GenerateRSAKey(NewPRNG([]byte("wide")), 64*maxLimbs+1); err == nil {
		t.Error("GenerateRSAKey accepted a modulus wider than maxLimbs")
	}
}

func TestZeroWipesCRTContext(t *testing.T) {
	key, err := GenerateRSAKey(NewPRNG([]byte("zero-ctx")), 512)
	if err != nil {
		t.Fatal(err)
	}
	crt := key.crt
	if *crt == (crtKey{}) {
		t.Fatal("CRT context is empty before Zero")
	}
	key.Zero()
	if *crt != (crtKey{}) {
		t.Error("CRT context (p, q, dp, dq, qinv limbs) survives Zero")
	}
	for name, x := range map[string]*big.Int{"D": key.D, "P": key.P, "Q": key.Q} {
		if x.Sign() != 0 {
			t.Errorf("%s survives Zero", name)
		}
	}
}

func TestRSAOpsAllocateNothing(t *testing.T) {
	key := testKey(t)
	pub := &key.RSAPublicKey
	rng := NewPRNG([]byte("allocs"))
	msg := []byte("seal seed 16 b!!")
	ct := make([]byte, key.Size())
	em := make([]byte, key.Size())
	sig := make([]byte, key.Size())
	if err := EncryptPKCS1To(ct, rng, pub, msg); err != nil {
		t.Fatal(err)
	}
	if err := SignPKCS1SHA1To(sig, key, msg); err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]func() error{
		"EncryptPKCS1To":  func() error { return EncryptPKCS1To(em, rng, pub, msg) },
		"DecryptPKCS1To":  func() error { _, err := DecryptPKCS1To(em, key, ct); return err },
		"SignPKCS1SHA1To": func() error { return SignPKCS1SHA1To(em, key, msg) },
		"VerifyPKCS1SHA1": func() error { return VerifyPKCS1SHA1(pub, msg, sig) },
	} {
		var err error
		if allocs := testing.AllocsPerRun(20, func() { err = op() }); allocs != 0 {
			t.Errorf("%s = %.1f allocs, want 0", name, allocs)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestKeySharedAcrossGoroutines runs every operation on one key from
// several goroutines at once: the contexts are built with the key and only
// read afterwards, so -race must stay quiet.
func TestKeySharedAcrossGoroutines(t *testing.T) {
	key := testKey(t)
	msg := []byte("shared")
	ct, err := EncryptPKCS1(NewPRNG([]byte("shared")), &key.RSAPublicKey, msg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := NewPRNG([]byte{byte(g)})
			for i := 0; i < 20; i++ {
				if _, err := EncryptPKCS1(rng, &key.RSAPublicKey, msg); err != nil {
					t.Error(err)
				}
				if pt, err := DecryptPKCS1(key, ct); err != nil || !bytes.Equal(pt, msg) {
					t.Errorf("decrypt = %q, %v", pt, err)
				}
				sig, err := SignPKCS1SHA1(key, msg)
				if err != nil || VerifyPKCS1SHA1(&key.RSAPublicKey, msg, sig) != nil {
					t.Errorf("sign/verify failed: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// benchKeys are the two sizes the per-operation benchmarks run at: the
// TPM's default SRK/AIK size and the paper's PAL channel and CA keys.
func benchKeys(b *testing.B) []*RSAPrivateKey {
	var keys []*RSAPrivateKey
	for _, bits := range []int{512, 1024} {
		key, err := GenerateRSAKey(NewPRNG([]byte("rsa-bench")), bits)
		if err != nil {
			b.Fatal(err)
		}
		keys = append(keys, key)
	}
	return keys
}

func BenchmarkRSADecryptCRT(b *testing.B) {
	for _, key := range benchKeys(b) {
		b.Run(fmt.Sprint(key.N.BitLen()), func(b *testing.B) {
			ct, err := EncryptPKCS1(NewPRNG([]byte("ct")), &key.RSAPublicKey, []byte("seal seed 16 b!!"))
			if err != nil {
				b.Fatal(err)
			}
			em := make([]byte, key.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecryptPKCS1To(em, key, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRSAEncrypt(b *testing.B) {
	for _, key := range benchKeys(b) {
		b.Run(fmt.Sprint(key.N.BitLen()), func(b *testing.B) {
			rng := NewPRNG([]byte("pad"))
			ct := make([]byte, key.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := EncryptPKCS1To(ct, rng, &key.RSAPublicKey, []byte("seal seed 16 b!!")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRSASign(b *testing.B) {
	for _, key := range benchKeys(b) {
		b.Run(fmt.Sprint(key.N.BitLen()), func(b *testing.B) {
			sig := make([]byte, key.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SignPKCS1SHA1To(sig, key, []byte("quote info")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
