package sshauth

import (
	"bytes"
	"runtime"
	"testing"

	"flicker/internal/tpm"
)

// FuzzLoginDecoders feeds arbitrary bytes to the SSH PAL's decoders of
// untrusted input: decodeLogin (a singleton login page, after its mode
// byte) and decodeBatchLogin (one request of a batch). Nothing may panic,
// decoding may allocate no more than a bound linear in the input, and a
// decoded request re-encodes to exactly its input: both decoders consume
// every byte.
func FuzzLoginDecoders(f *testing.F) {
	nonce := tpm.Digest{1, 2, 3, 4}
	f.Add(EncodeLogin(&LoginRequest{
		SData:      []byte("sealed key blob"),
		Ciphertext: bytes.Repeat([]byte{0xc7}, 64),
		Salt:       "a1b2c3d4",
		Nonce:      nonce,
	})[1:])
	f.Add(EncodeBatchLogin(bytes.Repeat([]byte{0xc7}, 64), "saltsalt", nonce))
	f.Add(EncodeBatchLogin(nil, "", tpm.Digest{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		login, loginErr := decodeLogin(data)
		batch, batchErr := decodeBatchLogin(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*uint64(len(data))+1<<14 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		if loginErr == nil {
			if enc := EncodeLogin(login); !bytes.Equal(enc[1:], data) {
				t.Fatalf("login %x re-encodes to %x", data, enc[1:])
			}
		}
		if batchErr == nil {
			if enc := EncodeBatchLogin(batch.Ciphertext, batch.Salt, batch.Nonce); !bytes.Equal(enc, data) {
				t.Fatalf("batch login %x re-encodes to %x", data, enc)
			}
		}
	})
}
