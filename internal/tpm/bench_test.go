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
// trip itself. The client frames into its command scratch and the TPM
// answers into the client's response scratch, so an unauthorized round
// trip allocates nothing; a regression that reintroduces per-command
// framing or response allocations trips the zero guards.
func TestCommandAllocsRegression(t *testing.T) {
	r := newBenchRig(t)
	d := Digest(palcrypto.SHA1Sum([]byte("warm")))

	extend := testing.AllocsPerRun(200, func() {
		if _, err := r.os.Extend(10, d); err != nil {
			t.Fatal(err)
		}
	})
	if extend != 0 {
		t.Errorf("Extend round trip = %.1f allocs, want 0", extend)
	}

	read := testing.AllocsPerRun(200, func() {
		if _, err := r.os.PCRRead(10); err != nil {
			t.Fatal(err)
		}
	})
	if read != 0 {
		t.Errorf("PCRRead round trip = %.1f allocs, want 0", read)
	}

	var seed [128]byte
	random := testing.AllocsPerRun(200, func() {
		if err := r.pal.GetRandomInto(seed[:]); err != nil {
			t.Fatal(err)
		}
	})
	if random != 0 {
		t.Errorf("GetRandomInto round trip = %.1f allocs, want 0", random)
	}

	// The bus appends into a caller buffer that is already large enough.
	cmd := marshalCommand(tagRQUCommand, OrdPCRRead, []byte{0, 0, 0, 10})
	rsp := make([]byte, 0, 64)
	if err := r.bus.RequestUse(tis.Locality0); err != nil {
		t.Fatal(err)
	}
	submit := testing.AllocsPerRun(200, func() {
		if _, err := r.bus.SubmitTo(rsp, tis.Locality0, cmd); err != nil {
			t.Fatal(err)
		}
	})
	if err := r.bus.Release(tis.Locality0); err != nil {
		t.Fatal(err)
	}
	if submit != 0 {
		t.Errorf("Bus.SubmitTo into a sized buffer = %.1f allocs, want 0", submit)
	}

	// Authorized round trips: the OIAP handshake, the command and response
	// MACs, the envelope, the RSA seed transport and both response frames
	// are allocation-free. An Unseal into a destination the caller reuses
	// therefore allocates nothing, and a Seal allocates only the blob the
	// caller keeps. A MAC, nonce, envelope, RSA or frame buffer that goes
	// back to the heap trips the guards.
	blob, err := r.pal.Seal(Digest{}, PCRSelection{}, Digest{}, []byte("sealed-payload"))
	if err != nil {
		t.Fatal(err)
	}
	var plain []byte
	unseal := testing.AllocsPerRun(100, func() {
		if plain, err = r.pal.AppendUnseal(plain[:0], Digest{}, blob); err != nil {
			t.Fatal(err)
		}
	})
	if unseal != 0 {
		t.Errorf("Unseal round trip into a reused destination = %.1f allocs, want 0", unseal)
	}
	seal := testing.AllocsPerRun(100, func() {
		if _, err := r.pal.Seal(Digest{}, SelectPCRs(17), Digest{}, []byte("sealed-payload")); err != nil {
			t.Fatal(err)
		}
	})
	if seal > 1 {
		t.Errorf("Seal round trip = %.1f allocs, budget 1 (the blob copy)", seal)
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
