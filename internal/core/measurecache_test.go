package core

// Security tests for the SKINIT measurement cache: the write-generation
// invalidation must guarantee the cache never masks tampering. A staged SLB
// corrupted through a CPU store or a DMA transaction after warm (cached)
// sessions must produce a different PCR 17 — attestation fails exactly as
// it would on the uncached path — and an undisturbed warm session must
// produce bit-identical measurements to the cold one.

import (
	"bytes"
	"testing"

	"flicker/internal/pal"
	"flicker/internal/simtime"
)

// TestMeasureCacheHitBitIdentical runs the same PAL twice: the first launch
// misses the cache and streams the SLB, the second hits and uses the
// precomputed digest. Every attestation-visible value must match exactly.
func TestMeasureCacheHitBitIdentical(t *testing.T) {
	p := newPlatform(t)
	nonce := palcrypto20(t, "cache-nonce")
	opts := SessionOptions{Input: []byte("in"), Nonce: &nonce}

	cold, err := p.RunSession(helloPAL(), opts)
	if err != nil || cold.PALError != nil {
		t.Fatalf("cold session: %v %v", err, cold.PALError)
	}
	misses := p.Metrics.Snapshot().Sum("flicker_skinit_measure_cache_total", "miss")
	if misses == 0 {
		t.Fatal("cold launch did not record a measurement cache miss")
	}

	warm, err := p.RunSession(helloPAL(), opts)
	if err != nil || warm.PALError != nil {
		t.Fatalf("warm session: %v %v", err, warm.PALError)
	}
	hits := p.Metrics.Snapshot().Sum("flicker_skinit_measure_cache_total", "hit")
	if hits == 0 {
		t.Fatal("second launch of an unchanged image did not hit the measurement cache")
	}

	if warm.Measurement != cold.Measurement {
		t.Errorf("cached Measurement %x != streamed %x", warm.Measurement, cold.Measurement)
	}
	if warm.PCR17AtLaunch != cold.PCR17AtLaunch {
		t.Errorf("cached PCR17AtLaunch %x != streamed %x", warm.PCR17AtLaunch, cold.PCR17AtLaunch)
	}
	if warm.PCR17Final != cold.PCR17Final {
		t.Errorf("cached PCR17Final %x != streamed %x", warm.PCR17Final, cold.PCR17Final)
	}
	// And both match the verifier's independent computation.
	if want := cold.Image.ExpectedPCR17(); warm.PCR17AtLaunch != want {
		t.Errorf("PCR17AtLaunch %x != verifier's expected %x", warm.PCR17AtLaunch, want)
	}
}

func palcrypto20(t *testing.T, s string) [20]byte {
	t.Helper()
	var d [20]byte
	copy(d[:], s)
	return d
}

// tamperOffset is where the tamper tests flip bytes: inside the measured
// SLB (the stack space region), where a corruption cannot derail header
// parsing or PAL execution — only the measurement.
const tamperOffset = 2048

// runTamperedSession runs one session that corrupts the staged SLB between
// init-slb and SKINIT (the window where a malicious flicker-module or
// device would strike a warm image) using the given corrupt func.
func runTamperedSession(t *testing.T, p *Platform, corrupt func(base uint32) error) *SessionResult {
	t.Helper()
	res, err := p.RunSession(helloPAL(), SessionOptions{
		Injector: func(phase string) error {
			if phase != "skinit" {
				return nil
			}
			base, err := p.Mod.AllocateSLB()
			if err != nil {
				return err
			}
			return corrupt(base)
		},
	})
	if err != nil {
		t.Fatalf("tampered session aborted: %v", err)
	}
	return res
}

// TestTamperAfterWarmSessionChangesPCR17 corrupts the staged SLB via a
// direct CPU write and, separately, via DMA — both after warm sessions have
// populated the measurement cache — and asserts SKINIT measures the
// corruption (different PCR 17) instead of replaying the cached digest.
func TestTamperAfterWarmSessionChangesPCR17(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(p *Platform) func(base uint32) error
	}{
		{"cpu-write", func(p *Platform) func(base uint32) error {
			return func(base uint32) error {
				return p.Machine.Mem.Write(base+tamperOffset, []byte("rootkit"))
			}
		}},
		{"dma-write", func(p *Platform) func(base uint32) error {
			nic := p.Machine.Mem.AttachDevice("evil-nic")
			return func(base uint32) error {
				// SKINIT has not yet raised the DEV for this launch, so the
				// malicious device's store lands — and bumps the region's
				// write generation.
				return nic.Write(base+tamperOffset, []byte("rootkit"))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t)
			// Two clean sessions: the second one runs from the cache.
			clean, err := p.RunSession(helloPAL(), SessionOptions{})
			if err != nil || clean.PALError != nil {
				t.Fatalf("clean session: %v %v", err, clean.PALError)
			}
			if _, err := p.RunSession(helloPAL(), SessionOptions{}); err != nil {
				t.Fatal(err)
			}
			if p.Metrics.Snapshot().Sum("flicker_skinit_measure_cache_total", "hit") == 0 {
				t.Fatal("warm-up did not populate the measurement cache")
			}

			tampered := runTamperedSession(t, p, tc.corrupt(p))
			if tampered.Measurement == clean.Measurement {
				t.Error("tampered SLB produced the clean measurement — cache masked the corruption")
			}
			if tampered.PCR17AtLaunch == clean.PCR17AtLaunch {
				t.Error("tampered SLB produced the clean PCR 17 — attestation would succeed")
			}

			// The cleanup scrub restores the pristine image, so the next
			// clean session measures correctly again (and re-warms the cache).
			recovered, err := p.RunSession(helloPAL(), SessionOptions{})
			if err != nil || recovered.PALError != nil {
				t.Fatalf("recovery session: %v %v", err, recovered.PALError)
			}
			if recovered.PCR17AtLaunch != clean.PCR17AtLaunch {
				t.Errorf("post-tamper session PCR 17 %x, want clean %x",
					recovered.PCR17AtLaunch, clean.PCR17AtLaunch)
			}
		})
	}
}

// TestSessionAllocs pins what a warm session allocates: exactly the two
// blocks it hands back to its caller, the SessionResult (co-allocated with
// its timeline) and the Outputs the PAL returns. Everything else is
// per-platform scratch: the session state with its launch record, the
// observer list, the PAL environment, the locality-2 drivers and their
// response buffers, the module's saved state and the output framing. The
// SLB is hashed where it sits, so a measure-cache miss costs nothing more
// than a hit, which the alternating case checks: with two PALs taking turns
// on one platform, every launch misses. The classic pipeline, the
// partitioned one and the alternating pair all cost 2, with or without
// -race.
func TestSessionAllocs(t *testing.T) {
	hello := helloPAL()
	other := &pal.Func{
		PALName: "other",
		Binary:  pal.DescriptorCode("other", "1.0", nil, nil),
		Fn: func(*pal.Env, []byte) ([]byte, error) {
			return []byte("Hello from the other PAL"), nil
		},
	}
	future, err := NewPlatform(PlatformConfig{Seed: "core-test", Profile: simtime.ProfileFuture()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Platform
		pals []pal.PAL // more than one: each launch misses the cache
		run  func(*Platform, pal.PAL, SessionOptions) (*SessionResult, error)
	}{
		{"classic", newPlatform(t), []pal.PAL{hello}, (*Platform).RunSession},
		{"partitioned", future, []pal.PAL{hello}, (*Platform).RunSessionConcurrent},
		{"alternating", newPlatform(t), []pal.PAL{hello, other}, (*Platform).RunSession},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			session := func() {
				pl := tc.pals[i%len(tc.pals)]
				i++
				res, err := tc.run(tc.p, pl, SessionOptions{})
				if err != nil || res.PALError != nil {
					t.Fatalf("%s: %v %v", pl.Name(), err, res.PALError)
				}
			}
			for range tc.pals {
				session()
			}
			misses := func() float64 {
				return tc.p.Metrics.Snapshot().Sum("flicker_skinit_measure_cache_total", "miss")
			}
			before := misses()
			const runs = 50
			avg := testing.AllocsPerRun(runs, session)
			// AllocsPerRun makes one warm-up call before the measured ones.
			want := 0.0
			if len(tc.pals) > 1 {
				want = runs + 1
			}
			if got := misses() - before; got != want {
				t.Fatalf("%v measure-cache misses in %d sessions, want %v", got, runs+1, want)
			}
			if avg != 2 {
				t.Errorf("warm %s session costs %.2f allocs, want exactly 2", tc.name, avg)
			}
		})
	}
}

// sealPAL seals its input to itself and unseals it again: the sealed-storage
// path every stateful PAL pays for in each session.
func sealPAL() pal.PAL {
	return &pal.Func{
		PALName: "seal",
		Binary:  pal.DescriptorCode("seal", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			blob, err := env.SealToSelf(input)
			if err != nil {
				return nil, err
			}
			return env.Unseal(blob)
		},
	}
}

// TestSealSessionAllocs guards the allocation budget of a warm session whose
// PAL runs SealToSelf and Unseal: the authorized TPM command path (OIAP,
// command and response MACs), the sealed-blob envelope and the RSA seed
// transport. What remains is the engine's own allocations and the two
// results the PAL keeps.
func TestSealSessionAllocs(t *testing.T) {
	p := newPlatform(t)
	seal := sealPAL()
	in := bytes.Repeat([]byte{0x5A}, 512)
	opts := SessionOptions{Input: in}
	if _, err := p.RunSession(seal, opts); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		res, err := p.RunSession(seal, opts)
		if err != nil || res.PALError != nil {
			t.Fatalf("%v %v", err, res.PALError)
		}
		if !bytes.Equal(res.Outputs, in) {
			t.Fatal("unsealed output differs from the sealed input")
		}
	})
	// The seed path ran ~296 allocs: a heap HMAC per MAC, growing MAC and
	// envelope buffers, heap session records and nonces, and math/big's Exp
	// state. With those on the stack or in TPM-owned scratch it measured
	// 24; with the response frames in the drivers' own buffers it measured
	// 5, and with the launch record in the session state it measures 4,
	// with or without -race: the SessionResult, the input copy, and the two
	// results the client copies out — the sealed blob and the unsealed
	// plaintext, which is the PAL's output. The budget is that plus ~25%.
	const budget = 5
	if avg > budget {
		t.Errorf("warm seal session costs %.0f allocs, budget %d", avg, budget)
	}
}

func BenchmarkSealSession(b *testing.B) {
	p, err := NewPlatform(PlatformConfig{Seed: "core-test"})
	if err != nil {
		b.Fatal(err)
	}
	seal := sealPAL()
	opts := SessionOptions{Input: bytes.Repeat([]byte{0x5A}, 512)}
	if _, err := p.RunSession(seal, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := p.RunSession(seal, opts); err != nil || res.PALError != nil {
			b.Fatal(err, res.PALError)
		}
	}
}
