package ca

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzCADecoders feeds arbitrary bytes to the CA's decoders of untrusted
// bytes: DecodeCertificate (a certificate from the host), decodeDatabase
// (the unsealed database) and DecodeBatchCSR (a batch request). Nothing may
// panic, decoding may allocate no more than a bound linear in the input,
// and whatever decodes re-encodes to the bytes it was read from (the
// certificate and database decoders read a prefix; DecodeBatchCSR rejects
// trailing bytes, so its input re-encodes whole).
func FuzzCADecoders(f *testing.F) {
	csr := testCSR("svc.corp.example")
	f.Add(EncodeCertificate(&Certificate{
		Serial:    42,
		Subject:   "svc.corp.example",
		PublicKey: []byte{1, 2, 3},
		Issuer:    IssuerName,
		Signature: []byte{9, 8, 7, 6},
	}))
	f.Add((&database{priv: []byte{1, 2, 3}, serial: 2, entries: []dbEntry{
		{serial: 1, subject: "mail.corp.example"}, {serial: 2, subject: "db.corp.example"},
	}}).encode())
	f.Add(EncodeBatchCSR(csr))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cert, certErr := DecodeCertificate(data)
		db, dbErr := decodeDatabase(data)
		req, reqErr := DecodeBatchCSR(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*uint64(len(data))+1<<14 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		prefix := func(kind string, enc []byte) {
			if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("%s %x re-encodes to %x", kind, data, enc)
			}
		}
		if certErr == nil {
			prefix("certificate", EncodeCertificate(cert))
		}
		if dbErr == nil {
			prefix("database", db.encode())
		}
		if reqErr == nil {
			if enc := EncodeBatchCSR(req); !bytes.Equal(enc, data) {
				t.Fatalf("batch CSR %x re-encodes to %x", data, enc)
			}
		}
	})
}
