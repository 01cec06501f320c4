package palcrypto

// HMACSHA1 computes an HMAC-SHA1 (RFC 2104) in one shot. TPM 1.2
// authorization sessions (OIAP/OSAP) and sealed blobs use it, and the
// distributed-computing PAL uses it for state chaining. The key pad and the
// hash state live on the caller's stack, so the dozen MACs a sealed-storage
// session computes cost no heap allocation. The pad and the keyed state are
// wiped before return.
func HMACSHA1(key, msg []byte) [SHA1Size]byte {
	var pad [SHA1BlockSize]byte
	if len(key) > SHA1BlockSize {
		k := SHA1Sum(key)
		copy(pad[:], k[:])
		clear(k[:])
	} else {
		copy(pad[:], key)
	}
	for i := range pad {
		pad[i] ^= 0x36
	}
	var h SHA1
	h.Reset()
	h.Write(pad[:])
	h.Write(msg)
	var inner, out [SHA1Size]byte
	h.sumInto(&inner)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	h.Reset()
	h.Write(pad[:])
	h.Write(inner[:])
	h.sumInto(&out)
	clear(pad[:])
	h = SHA1{}
	return out
}

// ConstantTimeEqual compares two byte slices without early exit, so MAC and
// password-hash comparisons inside a PAL do not leak timing.
func ConstantTimeEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
