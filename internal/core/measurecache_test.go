package core

// Security tests for the SKINIT measurement cache: the write-generation
// invalidation must guarantee the cache never masks tampering. A staged SLB
// corrupted through a CPU store or a DMA transaction after warm (cached)
// sessions must produce a different PCR 17 — attestation fails exactly as
// it would on the uncached path — and an undisturbed warm session must
// produce bit-identical measurements to the cold one.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"flicker/internal/pal"
	"flicker/internal/simtime"
	"flicker/internal/slb"
)

// TestMeasureCacheHitBitIdentical runs the same PAL twice: the first launch
// is forced to miss the cache and stream the SLB, the second hits and uses
// the digest init-slb noted when it staged the image. Every
// attestation-visible value must match exactly.
func TestMeasureCacheHitBitIdentical(t *testing.T) {
	p := newPlatform(t)
	nonce := palcrypto20(t, "cache-nonce")
	opts := SessionOptions{Input: []byte("in"), Nonce: &nonce}

	streamed := opts
	streamed.Injector = rewriteWindow(p)
	cold, err := p.RunSession(helloPAL(), streamed)
	if err != nil || cold.PALError != nil {
		t.Fatalf("streamed session: %v %v", err, cold.PALError)
	}
	misses := p.Metrics.Snapshot().Sum("flicker_skinit_measure_cache_total", "miss")
	if misses != 1 {
		t.Fatalf("rewritten window: %v measurement cache misses, want 1", misses)
	}

	warm, err := p.RunSession(helloPAL(), opts)
	if err != nil || warm.PALError != nil {
		t.Fatalf("warm session: %v %v", err, warm.PALError)
	}
	hits := p.Metrics.Snapshot().Sum("flicker_skinit_measure_cache_total", "hit")
	if hits != 1 {
		t.Fatalf("second launch of an unchanged image: %v cache hits, want 1", hits)
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
	if warm.Duration() != cold.Duration() {
		t.Errorf("cached session took %v simulated, streamed %v", warm.Duration(), cold.Duration())
	}
	// And both match the verifier's independent computation.
	if want := cold.Image.ExpectedPCR17(); warm.PCR17AtLaunch != want {
		t.Errorf("PCR17AtLaunch %x != verifier's expected %x", warm.PCR17AtLaunch, want)
	}
}

// rewriteWindow returns an Injector that, just before SKINIT, rewrites the
// staged SLB's measured bytes with their own values through a raw
// Mem.Write. The bytes do not change but their write generation does, so
// the launch cannot use the note staging left and must stream the SLB. It
// allocates nothing per session.
func rewriteWindow(p *Platform) func(string) error {
	buf := make([]byte, slb.MaxLen)
	return func(phase string) error {
		if phase != "skinit" {
			return nil
		}
		base, err := p.Mod.AllocateSLB()
		if err != nil {
			return err
		}
		if err := p.Machine.Mem.ReadInto(base, buf[:2]); err != nil {
			return err
		}
		b := buf[:binary.LittleEndian.Uint16(buf)]
		if err := p.Machine.Mem.ReadInto(base, b); err != nil {
			return err
		}
		return p.Machine.Mem.Write(base, b)
	}
}

// TestAlternatingPALsMeasureOnce runs 1000 sessions on one platform that
// takes 8 PALs in turn, all staged at the one SLB base. Staging notes each
// image's link-time digest, so no launch needs to re-hash the SLB the
// previous PAL's staging replaced: at most one miss per PAL, and every
// launch still measures exactly its own image.
func TestAlternatingPALsMeasureOnce(t *testing.T) {
	p := newPlatform(t)
	var pals []pal.PAL
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("alt-%d", i)
		reply := []byte(name)
		pals = append(pals, &pal.Func{
			PALName: name,
			Binary:  pal.DescriptorCode(name, "1.0", nil, nil),
			Fn:      func(*pal.Env, []byte) ([]byte, error) { return reply, nil },
		})
	}
	for i := 0; i < 1000; i++ {
		pl := pals[i%len(pals)]
		res, err := p.RunSession(pl, SessionOptions{})
		if err != nil || res.PALError != nil {
			t.Fatalf("session %d (%s): %v %v", i, pl.Name(), err, res.PALError)
		}
		if want := res.Image.ExpectedPCR17(); res.PCR17AtLaunch != want {
			t.Fatalf("session %d (%s): PCR 17 at launch %x, want %x", i, pl.Name(), res.PCR17AtLaunch, want)
		}
	}
	snap := p.Metrics.Snapshot()
	misses := snap.Sum("flicker_skinit_measure_cache_total", "miss")
	hits := snap.Sum("flicker_skinit_measure_cache_total", "hit")
	if misses > float64(len(pals)) {
		t.Errorf("%v measurement cache misses over 1000 sessions of %d PALs, want at most %d",
			misses, len(pals), len(pals))
	}
	if hits+misses != 1000 {
		t.Errorf("%v hits + %v misses, want 1000 lookups", hits, misses)
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

// TestSessionAllocs pins what a warm session allocates: exactly the blocks
// it hands back to its caller. The SessionResult is one, co-allocated with
// its timeline. Everything else is per-platform scratch: the session state
// with its launch record, the observer list, the PAL environment with its
// unseal scratch, the locality-2 drivers and their response buffers, the
// input read-back, the module's saved state and the output framing. So the
// hello PAL, which allocates its reply, costs 2, and a PAL replying from a
// package-level buffer costs 1 whatever its input. The seal PAL costs 3: the
// result, the sealed blob it keeps, and the copy of its output, which is an
// Unseal plaintext in session scratch. The SLB is hashed where it sits, so
// a measure-cache miss costs nothing more than a hit, which the alternating
// case checks: two PALs take turns on one platform, and a raw rewrite of
// each staged window's own bytes (rewriteWindow) makes every launch miss.
// Every count holds with or without -race.
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
	in := bytes.Repeat([]byte{0x5A}, 512)
	for _, tc := range []struct {
		name string
		p    *Platform
		pals []pal.PAL // more than one: each window is rewritten, so each launch misses
		run  func(*Platform, pal.PAL, SessionOptions) (*SessionResult, error)
		in   []byte
		want float64
	}{
		{"classic", newPlatform(t), []pal.PAL{hello}, (*Platform).RunSession, nil, 2},
		{"partitioned", future, []pal.PAL{hello}, (*Platform).RunSessionConcurrent, nil, 2},
		{"alternating", newPlatform(t), []pal.PAL{hello, other}, (*Platform).RunSession, nil, 2},
		{"fixed-reply-input", newPlatform(t), []pal.PAL{fixedPAL()}, (*Platform).RunSession, in, 1},
		{"seal", newPlatform(t), []pal.PAL{sealPAL()}, (*Platform).RunSession, in, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := SessionOptions{Input: tc.in}
			if len(tc.pals) > 1 {
				opts.Injector = rewriteWindow(tc.p)
			}
			i := 0
			session := func() {
				pl := tc.pals[i%len(tc.pals)]
				i++
				res, err := tc.run(tc.p, pl, opts)
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
			if avg != tc.want {
				t.Errorf("warm %s session costs %.2f allocs, want exactly %v", tc.name, avg, tc.want)
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
	// 5, and with the launch record in the session state 4. With the input
	// read-back and the unsealed plaintext in session scratch it measures
	// 3, with or without -race: the SessionResult, the sealed blob the PAL
	// keeps, and the result's copy of the PAL's output, which is the
	// plaintext. The budget is that plus ~25%, rounded down.
	const budget = 3
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
