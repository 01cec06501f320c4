package palcrypto

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"testing"
	"testing/quick"
)

// testKey generates a deterministic small-but-real RSA key once for the
// whole test file; 512-bit keys keep the suite fast while exercising every
// code path.
func testKey(t *testing.T) *RSAPrivateKey {
	t.Helper()
	key, err := GenerateRSAKey(NewPRNG([]byte("rsa-test-seed")), 512)
	if err != nil {
		t.Fatalf("GenerateRSAKey: %v", err)
	}
	return key
}

func TestGenerateRSAKeyProperties(t *testing.T) {
	key := testKey(t)
	if key.N.BitLen() != 512 {
		t.Errorf("modulus bit length = %d, want 512", key.N.BitLen())
	}
	if new(big.Int).Mul(key.P, key.Q).Cmp(key.N) != 0 {
		t.Error("N != P*Q")
	}
	// e*d == 1 mod lcm is implied by mod phi; check e*d mod (p-1) and (q-1).
	ed := new(big.Int).Mul(big.NewInt(int64(key.E)), key.D)
	for _, pm := range []*big.Int{new(big.Int).Sub(key.P, bigOne), new(big.Int).Sub(key.Q, bigOne)} {
		if new(big.Int).Mod(ed, pm).Cmp(bigOne) != 0 {
			t.Error("e*d != 1 mod (prime-1)")
		}
	}
	if !key.P.ProbablyPrime(20) || !key.Q.ProbablyPrime(20) {
		t.Error("factor not prime")
	}
}

func TestGenerateRSAKeyDeterministic(t *testing.T) {
	a, err := GenerateRSAKey(NewPRNG([]byte("same-seed")), 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRSAKey(NewPRNG([]byte("same-seed")), 512)
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(b.N) != 0 {
		t.Error("same seed produced different keys")
	}
	c, err := GenerateRSAKey(NewPRNG([]byte("diff-seed")), 512)
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(c.N) == 0 {
		t.Error("different seeds produced the same key")
	}
}

// plainPrime is the prime search without genPrime's pre-filters: the first
// shaped candidate that ProbablyPrime(20) accepts.
func plainPrime(t *testing.T, rand io.Reader, bits int) *big.Int {
	t.Helper()
	b := make([]byte, (bits+7)/8)
	for {
		if _, err := io.ReadFull(rand, b); err != nil {
			t.Fatal(err)
		}
		shapePrimeCandidate(b, bits)
		if p := new(big.Int).SetBytes(b); p.ProbablyPrime(20) {
			return p
		}
	}
}

// genPrime's trial division and Fermat pre-test only skip work: over 64
// seeds, it returns the prime of the plain ProbablyPrime(20) loop, so it
// also reads the same candidates. Every sixteenth seed searches at 512
// bits, the rest at 256.
func TestGenPrimeMatchesPlainSearch(t *testing.T) {
	for seed := 0; seed < 64; seed++ {
		bits := 256
		if seed%16 == 15 {
			bits = 512
		}
		s := []byte(fmt.Sprintf("prime-seed-%d", seed))
		p, err := genPrime(NewPRNG(s), bits)
		if err != nil {
			t.Fatal(err)
		}
		if w := plainPrime(t, NewPRNG(s), bits); p.Cmp(w) != 0 {
			t.Fatalf("seed %d, %d bits: genPrime = %x, plain search = %x", seed, bits, p, w)
		}
	}
}

// The trial-division table holds exactly the 308 odd primes below 2048,
// and hasSmallFactor agrees with big.Int arithmetic.
func TestHasSmallFactor(t *testing.T) {
	var primes []*big.Int
	for q := int64(3); q < 2048; q += 2 {
		if big.NewInt(q).ProbablyPrime(0) {
			primes = append(primes, big.NewInt(q))
		}
	}
	var table []*big.Int
	for _, g := range smallPrimeGroups {
		prod := uint64(1)
		for _, q := range g.primes {
			table = append(table, new(big.Int).SetUint64(q))
			prod *= q
		}
		if prod != g.prod {
			t.Fatalf("group %v: product %d, want %d", g.primes, g.prod, prod)
		}
	}
	if fmt.Sprint(table) != fmt.Sprint(primes) || len(table) != 308 {
		t.Fatalf("table holds %d primes %v, want the 308 odd primes below 2048", len(table), table)
	}
	rng := NewPRNG([]byte("small-factor"))
	var r big.Int
	for i := 0; i < 200; i++ {
		b := rng.Bytes(1 + i%40)
		x := new(big.Int).SetBytes(b)
		want := false
		for _, q := range primes {
			if r.Mod(x, q).Sign() == 0 {
				want = true
				break
			}
		}
		if got := hasSmallFactor(b); got != want {
			t.Fatalf("hasSmallFactor(%x) = %v, want %v", b, got, want)
		}
	}
}

func TestGenerateRSAKeyTooSmall(t *testing.T) {
	if _, err := GenerateRSAKey(NewPRNG([]byte("x")), 64); err == nil {
		t.Fatal("accepted 64-bit modulus")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := testKey(t)
	rng := NewPRNG([]byte("enc"))
	msgs := [][]byte{
		{},
		[]byte("x"),
		[]byte("the user's password"),
		bytes.Repeat([]byte{0x00}, 20), // leading zeros must survive
		bytes.Repeat([]byte{0xff}, key.Size()-11),
	}
	for i, msg := range msgs {
		ct, err := EncryptPKCS1(rng, &key.RSAPublicKey, msg)
		if err != nil {
			t.Fatalf("msg %d: encrypt: %v", i, err)
		}
		if len(ct) != key.Size() {
			t.Errorf("msg %d: ciphertext length %d, want %d", i, len(ct), key.Size())
		}
		pt, err := DecryptPKCS1(key, ct)
		if err != nil {
			t.Fatalf("msg %d: decrypt: %v", i, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Errorf("msg %d: round trip got %x, want %x", i, pt, msg)
		}
	}
}

// TestNonzeroRandomMatchesByteLoop checks that the bulk padding draw keeps
// exactly the bytes, and consumes exactly the stream, of the one-byte
// rejection loop it replaced: sealed blobs stay bit-identical for a given
// TPM seed only if the padding draw order does.
func TestNonzeroRandomMatchesByteLoop(t *testing.T) {
	// A stream with plenty of zeros, so the rejection path runs.
	stream := make([]byte, 4096)
	NewPRNG([]byte("pad")).Read(stream)
	for i := range stream {
		if stream[i]%3 == 0 {
			stream[i] = 0
		}
	}
	for _, n := range []int{0, 1, 8, 45, 245} {
		want := make([]byte, 0, n)
		used := 0
		for len(want) < n {
			if b := stream[used]; b != 0 {
				want = append(want, b)
			}
			used++
		}
		r := bytes.NewReader(stream)
		got := make([]byte, n)
		if err := nonzeroRandom(r, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: padding differs from the byte loop", n)
		}
		if consumed := len(stream) - r.Len(); consumed != used {
			t.Errorf("n=%d: consumed %d stream bytes, byte loop consumes %d", n, consumed, used)
		}
	}
}

// TestPKCS1ToUsesCallerBuffers checks the buffer-taking forms: the
// ciphertext lands in dst, the message is a subslice of em, the signature
// lands in sig, and a wrong output size is refused.
func TestPKCS1ToUsesCallerBuffers(t *testing.T) {
	key := testKey(t)
	msg := []byte("seal seed 16 b!!")
	ct := make([]byte, key.Size())
	if err := EncryptPKCS1To(ct, NewPRNG([]byte("to")), &key.RSAPublicKey, msg); err != nil {
		t.Fatal(err)
	}
	want, _ := EncryptPKCS1(NewPRNG([]byte("to")), &key.RSAPublicKey, msg)
	if !bytes.Equal(ct, want) {
		t.Fatal("EncryptPKCS1To and EncryptPKCS1 differ for the same stream")
	}
	em := make([]byte, key.Size()+7)
	pt, err := DecryptPKCS1To(em, key, ct)
	if err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("DecryptPKCS1To = %q, %v", pt, err)
	}
	if &pt[len(pt)-1] != &em[key.Size()-1] {
		t.Error("DecryptPKCS1To did not return a subslice of the caller's buffer")
	}
	if err := EncryptPKCS1To(ct[1:], NewPRNG(nil), &key.RSAPublicKey, msg); err == nil {
		t.Error("EncryptPKCS1To accepted a short output buffer")
	}
	sig := make([]byte, key.Size())
	if err := SignPKCS1SHA1To(sig, key, msg); err != nil {
		t.Fatal(err)
	}
	if want, _ := SignPKCS1SHA1(key, msg); !bytes.Equal(sig, want) {
		t.Error("SignPKCS1SHA1To and SignPKCS1SHA1 differ")
	}
	if err := SignPKCS1SHA1To(sig[1:], key, msg); err == nil {
		t.Error("SignPKCS1SHA1To accepted a short output buffer")
	}
}

func TestEncryptTooLong(t *testing.T) {
	key := testKey(t)
	msg := make([]byte, key.Size()-10)
	if _, err := EncryptPKCS1(NewPRNG([]byte("e")), &key.RSAPublicKey, msg); err == nil {
		t.Fatal("accepted over-long message")
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	key := testKey(t)
	// Wrong length.
	if _, err := DecryptPKCS1(key, make([]byte, 7)); err == nil {
		t.Error("accepted short ciphertext")
	}
	// c >= N.
	tooBig := key.N.Bytes()
	if _, err := DecryptPKCS1(key, tooBig); err == nil {
		t.Error("accepted c >= N")
	}
	// c + N ≡ c, so only the c < N check refuses it.
	ct, _ := unreducedTwin(t, key, func(i int) []byte {
		ct, _ := EncryptPKCS1(NewPRNG([]byte{byte(i)}), &key.RSAPublicKey, []byte("x"))
		return ct
	})
	if _, err := DecryptPKCS1(key, ct); err == nil {
		t.Error("accepted c + N")
	}
	// Random bytes should (overwhelmingly) fail padding checks.
	rng := NewPRNG([]byte("garbage"))
	fails := 0
	for i := 0; i < 20; i++ {
		ct := rng.Bytes(key.Size())
		ct[0] = 0 // keep it < N
		if _, err := DecryptPKCS1(key, ct); err != nil {
			fails++
		}
	}
	if fails < 19 {
		t.Errorf("only %d/20 random ciphertexts rejected", fails)
	}
}

// unreducedTwin returns x + N and i for the first x = gen(i) small enough
// that x + N still fits in Size() bytes.
func unreducedTwin(t *testing.T, key *RSAPrivateKey, gen func(i int) []byte) ([]byte, int) {
	t.Helper()
	limit := new(big.Int).Lsh(bigOne, uint(8*key.Size()))
	for i := 0; i < 64; i++ {
		x := new(big.Int).Add(new(big.Int).SetBytes(gen(i)), key.N)
		if x.Cmp(limit) < 0 {
			return x.FillBytes(make([]byte, key.Size())), i
		}
	}
	t.Fatal("no input below 2^(8k) - N in 64 tries")
	return nil, 0
}

func TestCiphertextNondeterministic(t *testing.T) {
	key := testKey(t)
	rng := NewPRNG([]byte("nd"))
	a, _ := EncryptPKCS1(rng, &key.RSAPublicKey, []byte("same message"))
	b, _ := EncryptPKCS1(rng, &key.RSAPublicKey, []byte("same message"))
	if bytes.Equal(a, b) {
		t.Fatal("PKCS1 encryption is deterministic (padding reuse)")
	}
}

func TestSignVerify(t *testing.T) {
	key := testKey(t)
	msg := []byte("certificate signing request")
	sig, err := SignPKCS1SHA1(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPKCS1SHA1(&key.RSAPublicKey, msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	// Tampered message.
	if err := VerifyPKCS1SHA1(&key.RSAPublicKey, []byte("certificate signing requesT"), sig); err == nil {
		t.Error("tampered message accepted")
	}
	// Tampered signature.
	bad := append([]byte(nil), sig...)
	bad[len(bad)/2] ^= 1
	if err := VerifyPKCS1SHA1(&key.RSAPublicKey, msg, bad); err == nil {
		t.Error("tampered signature accepted")
	}
	// s + N ≡ s: refused, or signatures would be malleable.
	twin, i := unreducedTwin(t, key, func(i int) []byte {
		sig, _ := SignPKCS1SHA1(key, []byte{byte(i)})
		return sig
	})
	if err := VerifyPKCS1SHA1(&key.RSAPublicKey, []byte{byte(i)}, twin); err == nil {
		t.Error("accepted s + N")
	}
	// Wrong key.
	other, _ := GenerateRSAKey(NewPRNG([]byte("other")), 512)
	if err := VerifyPKCS1SHA1(&other.RSAPublicKey, msg, sig); err == nil {
		t.Error("signature accepted under wrong key")
	}
}

func TestSignVerifyProperty(t *testing.T) {
	key := testKey(t)
	f := func(msg []byte) bool {
		sig, err := SignPKCS1SHA1(key, msg)
		if err != nil {
			return false
		}
		return VerifyPKCS1SHA1(&key.RSAPublicKey, msg, sig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	key := testKey(t)
	b := MarshalPublicKey(&key.RSAPublicKey)
	got, err := UnmarshalPublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(key.N) != 0 || got.E != key.E {
		t.Fatal("public key round trip mismatch")
	}
}

func TestPublicKeyUnmarshalRejects(t *testing.T) {
	key := testKey(t)
	good := MarshalPublicKey(&key.RSAPublicKey)
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte(nil), good...), 0),
		"even exp":     func() []byte { b := append([]byte(nil), good...); b[3] = 4; return b }(),
		"tiny modulus": {0, 1, 0, 1, 0, 0, 0, 1, 7},
		"even modulus": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] &^= 1
			return b
		}(),
		"modulus wider than maxLimbs": MarshalPublicKey(&RSAPublicKey{N: wideModulus(), E: 65537}),
	}
	for name, b := range cases {
		if _, err := UnmarshalPublicKey(b); err == nil {
			t.Errorf("%s: accepted malformed public key", name)
		}
	}
}

func TestPrivateKeyMarshalRoundTrip(t *testing.T) {
	key := testKey(t)
	b := MarshalPrivateKey(key)
	got, err := UnmarshalPrivateKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(key.N) != 0 || got.D.Cmp(key.D) != 0 {
		t.Fatal("private key round trip mismatch")
	}
	// The recomputed CRT parameters must still decrypt.
	ct, _ := EncryptPKCS1(NewPRNG([]byte("r")), &key.RSAPublicKey, []byte("sealed"))
	pt, err := DecryptPKCS1(got, ct)
	if err != nil || !bytes.Equal(pt, []byte("sealed")) {
		t.Fatalf("round-tripped key failed to decrypt: %v", err)
	}
}

func TestPrivateKeyUnmarshalRejectsInconsistent(t *testing.T) {
	key := testKey(t)
	b := MarshalPrivateKey(key)
	// Corrupt a middle byte of the N field; P*Q check must fail.
	b[10] ^= 0xff
	if _, err := UnmarshalPrivateKey(b); err == nil {
		t.Fatal("accepted inconsistent private key")
	}
	if _, err := UnmarshalPrivateKey(b[:5]); err == nil {
		t.Fatal("accepted truncated private key")
	}
}

// FuzzRSAKeyUnmarshal feeds arbitrary bytes to both key decoders: a
// private key comes back from sealed storage that untrusted software
// keeps, a public key from a peer. Nothing may panic; neither decoder,
// failing or not, may allocate beyond a bound linear in the input's
// length; and a decoded key must re-encode to the input, or to a shorter
// canonical form when the input pads a number with leading zeros, which
// re-encodes to itself.
func FuzzRSAKeyUnmarshal(f *testing.F) {
	for _, key := range testKernelKeys(f) {
		f.Add(MarshalPublicKey(&key.RSAPublicKey))
		f.Add(MarshalPrivateKey(key))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var pub *RSAPublicKey
		var priv *RSAPrivateKey
		var pubErr, privErr error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pub, pubErr = UnmarshalPublicKey(data)
		priv, privErr = UnmarshalPrivateKey(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*uint64(len(data))+1<<14 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		reencodes := func(kind string, enc []byte, again func([]byte) ([]byte, error)) {
			if len(enc) > len(data) || len(enc) == len(data) && !bytes.Equal(enc, data) {
				t.Fatalf("%s key %x re-encodes to %x", kind, data, enc)
			}
			if enc2, err := again(enc); err != nil || !bytes.Equal(enc2, enc) {
				t.Fatalf("%s key %x re-decodes to %x, %v", kind, enc, enc2, err)
			}
		}
		if pubErr == nil {
			reencodes("public", MarshalPublicKey(pub), func(b []byte) ([]byte, error) {
				k, err := UnmarshalPublicKey(b)
				if err != nil {
					return nil, err
				}
				return MarshalPublicKey(k), nil
			})
		}
		if privErr == nil {
			reencodes("private", MarshalPrivateKey(priv), func(b []byte) ([]byte, error) {
				k, err := UnmarshalPrivateKey(b)
				if err != nil {
					return nil, err
				}
				return MarshalPrivateKey(k), nil
			})
		}
	})
}

func TestPRNGDeterministicAndDistinct(t *testing.T) {
	a := NewPRNG([]byte("seed")).Bytes(64)
	b := NewPRNG([]byte("seed")).Bytes(64)
	c := NewPRNG([]byte("tree")).Bytes(64)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same stream")
	}
}

func TestPRNGReadSplitsEqualOneShot(t *testing.T) {
	one := NewPRNG([]byte("split")).Bytes(100)
	p := NewPRNG([]byte("split"))
	var parts []byte
	for _, n := range []int{1, 7, 19, 73} {
		parts = append(parts, p.Bytes(n)...)
	}
	if !bytes.Equal(one, parts) {
		t.Fatal("split reads differ from one-shot read")
	}
}

func TestPRNGIntn(t *testing.T) {
	p := NewPRNG([]byte("intn"))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := p.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("digit %d count %d grossly non-uniform", d, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	p.Intn(0)
}
