package tpm

import (
	"testing"

	"flicker/internal/hw/tis"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
)

// newBenchRig is newRig without the testing.T plumbing, for benchmarks and
// allocation measurements.
func newBenchRig(tb testing.TB) *rig {
	tb.Helper()
	clock := simtime.New()
	tp, err := New(clock, simtime.ProfileBroadcom(), Options{Seed: []byte("bench-tpm")})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	bus := tis.NewBus(tp)
	return &rig{
		tpm:   tp,
		bus:   bus,
		clock: clock,
		os:    NewClient(bus, tis.Locality0, []byte("os-nonces")),
		pal:   NewClient(bus, tis.Locality2, []byte("pal-nonces")),
		hw:    NewClient(bus, tis.Locality4, []byte("hw-nonces")),
	}
}

// TestCommandAllocsRegression is the allocation guard for the TPM round
// trip itself: the client-side scratch buffers must keep simple command
// framing off the heap, so a session's dozens of TPM commands do not grow
// the per-session allocation budget. The budgets have headroom over the
// measured values (the TPM core still allocates its response frames); a
// regression that reintroduces per-command client marshaling allocations
// trips them.
func TestCommandAllocsRegression(t *testing.T) {
	r := newBenchRig(t)
	d := Digest(palcrypto.SHA1Sum([]byte("warm")))

	// Unauthorized round trip: client frame reuse leaves only the TPM's
	// response allocations.
	extend := testing.AllocsPerRun(200, func() {
		if _, err := r.os.Extend(10, d); err != nil {
			t.Fatal(err)
		}
	})
	if extend > 6 {
		t.Errorf("Extend round trip = %.1f allocs, budget 6", extend)
	}

	read := testing.AllocsPerRun(200, func() {
		if _, err := r.os.PCRRead(10); err != nil {
			t.Fatal(err)
		}
	})
	if read > 6 {
		t.Errorf("PCRRead round trip = %.1f allocs, budget 6", read)
	}

	// Authorized round trips: the OIAP handshake, the command and response
	// MACs, the envelope and the RSA seed transport are allocation-free, so
	// what remains is the two response frames. Unseal and Seal both
	// measure 2, with or without -race; the budgets are that plus ~25%. A
	// MAC, nonce, envelope or RSA buffer that goes back to the heap trips
	// them.
	const unsealBudget, sealBudget = 3, 3
	blob, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("sealed-payload"))
	if err != nil {
		t.Fatal(err)
	}
	unseal := testing.AllocsPerRun(100, func() {
		if _, err := r.pal.Unseal(Digest{}, blob); err != nil {
			t.Fatal(err)
		}
	})
	if unseal > unsealBudget {
		t.Errorf("Unseal round trip = %.1f allocs, budget %d", unseal, unsealBudget)
	}
	seal := testing.AllocsPerRun(100, func() {
		if _, err := r.pal.Seal(Digest{}, SelectPCRs(17), Digest{}, []byte("sealed-payload")); err != nil {
			t.Fatal(err)
		}
	})
	if seal > sealBudget {
		t.Errorf("Seal round trip = %.1f allocs, budget %d", seal, sealBudget)
	}
}

func BenchmarkExtendRoundTrip(b *testing.B) {
	r := newBenchRig(b)
	d := Digest(palcrypto.SHA1Sum([]byte("bench")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.os.Extend(10, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealUnsealRoundTrip(b *testing.B) {
	r := newBenchRig(b)
	blob, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("sealed-payload"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.pal.Unseal(Digest{}, blob); err != nil {
			b.Fatal(err)
		}
	}
}
