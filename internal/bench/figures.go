package bench

import (
	"bytes"
	"fmt"
	"time"

	"flicker/internal/apps/ca"
	"flicker/internal/apps/distcomp"
	"flicker/internal/apps/sshauth"
	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/pal"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

// Figure8Efficiency reproduces Figure 8: Flicker efficiency versus user
// latency, against 3/5/7-way replication. The Flicker overhead constant is
// MEASURED from a real continuation session, not assumed.
func Figure8Efficiency() (*Table, error) {
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "bench-f8"})
	if err != nil {
		return nil, err
	}
	// Measure the fixed per-session overhead with a minimal-work session.
	unit := distcomp.State{UnitID: 1, N: 15, Next: 2, Hi: 1 << 62}
	initRes, err := p.RunSession(distcomp.NewFactorPAL(), core.SessionOptions{
		Input:    distcomp.EncodeRequest(&distcomp.Request{Init: true, Unit: unit}),
		TwoStage: true,
	})
	if err != nil || initRes.PALError != nil {
		return nil, fmt.Errorf("bench: fig 8 init: %v %v", err, initRes.PALError)
	}
	resp, err := distcomp.DecodeResponse(initRes.Outputs)
	if err != nil {
		return nil, err
	}
	contRes, err := p.RunSession(distcomp.NewFactorPAL(), core.SessionOptions{
		Input: distcomp.EncodeRequest(&distcomp.Request{
			SealedKey: resp.SealedKey, Envelope: resp.Envelope, WorkBudget: time.Millisecond,
		}),
		TwoStage: true,
	})
	if err != nil || contRes.PALError != nil {
		return nil, fmt.Errorf("bench: fig 8 continue: %v %v", err, contRes.PALError)
	}
	overhead := contRes.Duration() - time.Millisecond

	// Paper's Figure 8 curve (read off the plot; the crossover claims in
	// the text are what we verify: 2 s beats 3-way replication).
	paperCurve := map[int]float64{
		1: 0.09, 2: 0.54, 3: 0.70, 4: 0.77, 5: 0.82,
		6: 0.85, 7: 0.87, 8: 0.89, 9: 0.90, 10: 0.91,
	}
	t := &Table{
		ID:    "Figure 8",
		Title: fmt.Sprintf("Flicker vs replication efficiency (measured overhead %.1f ms/session)", ms(overhead)),
		Notes: "replication constants: 3-way 0.33, 5-way 0.20, 7-way 0.14; paper values read off the plot",
	}
	for l := 1; l <= 10; l++ {
		lat := time.Duration(l) * time.Second
		t.Rows = append(t.Rows, Row{
			fmt.Sprintf("Flicker efficiency @ %d s latency", l),
			paperCurve[l],
			distcomp.FlickerEfficiency(lat, overhead),
			"fraction",
		})
	}
	for _, k := range []int{3, 5, 7} {
		t.Rows = append(t.Rows, Row{
			fmt.Sprintf("%d-way replication efficiency", k),
			1 / float64(k),
			distcomp.ReplicationEfficiency(k),
			"fraction",
		})
	}
	return t, nil
}

// Figure9SSH reproduces Figure 9: the SSH server's two PALs with their
// per-operation breakdown, measured from real sessions.
func Figure9SSH() (*Table, *Table, error) {
	p, tqd, ca2, err := hostPlatform("bench-f9")
	if err != nil {
		return nil, nil, err
	}
	_ = ca2
	srv := sshauth.NewServer(p, tqd)
	srv.AddUser("alice", "benchmark-password", "saltsalt")
	client := sshauth.NewClient(ca2.PublicKey(), []byte("bench-client"))

	// --- PAL 1: setup ---
	rec := p.Clock.Record()
	nonce := client.FreshNonce()
	sr, err := srv.Setup(nonce)
	if err != nil {
		return nil, nil, err
	}
	if err := client.TrustSetup(sr, nonce); err != nil {
		return nil, nil, err
	}
	charges := rec.Stop()
	skinit1 := sumLabel(charges, "cpu.skinit") + sumLabel(charges, "tpm.hashdata")
	keygen := sumLabel(charges, "cpu.keygen")
	seal := sumLabel(charges, "tpm.seal")
	quote := sumLabel(charges, "tpm.quote")
	var pal1Total time.Duration
	for _, c := range charges {
		if c.Label != "tpm.quote" && c.Label != "net.send" {
			pal1Total += c.Duration
		}
	}
	t1 := &Table{
		ID:    "Figure 9a",
		Title: "SSH Setup PAL (PAL 1) breakdown",
		Rows: []Row{
			{"SKINIT", 14.3, ms(skinit1), "ms"},
			{"Key Gen", 185.7, ms(keygen), "ms"},
			{"Seal", 10.2, ms(seal), "ms"},
			{"Total Time (PAL side)", 217.1, ms(pal1Total), "ms"},
			{"TPM Quote (outside PAL)", 949, ms(quote), "ms"},
		},
		Notes: "paper's quote (949 ms) happens after the session on the untrusted OS",
	}

	// --- PAL 2: login ---
	loginNonce := srv.FreshNonce()
	ct, err := client.Encrypt("benchmark-password", loginNonce)
	if err != nil {
		return nil, nil, err
	}
	start := p.Clock.Now()
	rec = p.Clock.Record()
	err = srv.Login("alice", ct, loginNonce)
	charges = rec.Stop()
	if err != nil {
		return nil, nil, err
	}
	total2 := p.Clock.Now() - start
	t2 := &Table{
		ID:    "Figure 9b",
		Title: "SSH Login PAL (PAL 2) breakdown",
		Rows: []Row{
			{"SKINIT", 14.3, ms(sumLabel(charges, "cpu.skinit") + sumLabel(charges, "tpm.hashdata")), "ms"},
			{"Unseal", 905.4, ms(sumLabel(charges, "tpm.unseal")), "ms"},
			{"Decrypt", 4.6, ms(sumLabel(charges, "cpu.rsadecrypt")), "ms"},
			{"Total Time", 937.6, ms(total2), "ms"},
		},
		Notes: "our Broadcom profile models unseal at 898.3 ms (Table 4's figure for the same chip)",
	}
	return t1, t2, nil
}

// CASignLatency reproduces Section 7.4.2: the CA's certificate-signing
// session, 906.2 ms average, dominated by the TPM unseal, with the RSA
// signature at ~4.7 ms.
func CASignLatency() (*Table, error) {
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "bench-ca"})
	if err != nil {
		return nil, err
	}
	authority := ca.NewAuthority(p, &ca.Policy{AllowedSuffixes: []string{".bench"}})
	if err := authority.Init(); err != nil {
		return nil, err
	}
	key, err := palcrypto.GenerateRSAKey(palcrypto.NewPRNG([]byte("bench-csr")), 512)
	if err != nil {
		return nil, err
	}
	csr := &ca.CSR{Subject: "host.bench", PublicKey: palcrypto.MarshalPublicKey(&key.RSAPublicKey)}
	start := p.Clock.Now()
	rec := p.Clock.Record()
	cert, err := authority.Sign(csr)
	charges := rec.Stop()
	if err != nil {
		return nil, err
	}
	total := p.Clock.Now() - start
	if err := authority.Validate(cert); err != nil {
		return nil, err
	}
	return &Table{
		ID:    "Section 7.4.2",
		Title: "CA certificate signing latency",
		Rows: []Row{
			{"Total signing session", 906.2, ms(total), "ms"},
			{"RSA signature", 4.7, ms(sumLabel(charges, "cpu.rsasign")), "ms"},
			{"TPM Unseal", 898.3, ms(sumLabel(charges, "tpm.unseal")), "ms"},
		},
	}, nil
}

// Figure6Modules reproduces Figure 6: the PAL module inventory with LoC and
// size accounting (exact by construction; included for completeness).
func Figure6Modules() *Table {
	t := &Table{
		ID:    "Figure 6",
		Title: "PAL module library (LoC per module)",
		Notes: "sizes in the paper's own accounting; mandatory TCB is SLB Core alone",
	}
	for _, m := range pal.ModuleInventory() {
		t.Rows = append(t.Rows, Row{m.Name, float64(m.LOC), float64(m.LOC), "LoC"})
	}
	loc, _, _ := pal.TCBSize([]string{"OS Protection"})
	t.Rows = append(t.Rows, Row{"Minimal mandatory TCB (core + OS prot.)", 250, float64(loc), "LoC (paper: 'as few as 250')"})
	return t
}

// Sec75BlockDeviceIntegrity reproduces Section 7.5: large file copies
// interleaved with repeated long Flicker sessions complete with zero I/O
// errors and intact checksums, because the Flicker-aware driver defers
// transfers during sessions.
func Sec75BlockDeviceIntegrity(fileSize int, sessions int) (*Table, error) {
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "bench-75", MemSize: 64 << 20})
	if err != nil {
		return nil, err
	}
	src := p.Kernel.AttachBlockDev("cdrom", fileSize+4096, 50*time.Nanosecond)
	dst := p.Kernel.AttachBlockDev("usb", fileSize+4096, 30*time.Nanosecond)
	payload := palcrypto.NewPRNG([]byte("dvd-image")).Bytes(fileSize)
	if err := src.Store(0, payload); err != nil {
		return nil, err
	}
	cp, err := p.Kernel.StartCopy(src, 0, dst, 0, fileSize, 64*1024)
	if err != nil {
		return nil, err
	}

	// The distributed-computing app runs repeatedly: "Each run lasts an
	// average of 8.3 seconds, and the legacy OS runs for an average of
	// 37 ms in between."
	unit := distcomp.State{UnitID: 1, N: 1_000_003 * 2, Next: 2, Hi: 1 << 62}
	initRes, err := p.RunSession(distcomp.NewFactorPAL(), core.SessionOptions{
		Input:    distcomp.EncodeRequest(&distcomp.Request{Init: true, Unit: unit}),
		TwoStage: true,
	})
	if err != nil || initRes.PALError != nil {
		return nil, fmt.Errorf("bench: 7.5 init: %v %v", err, initRes.PALError)
	}
	resp, err := distcomp.DecodeResponse(initRes.Outputs)
	if err != nil {
		return nil, err
	}
	deferred := 0
	for i := 0; i < sessions; i++ {
		contRes, err := p.RunSession(distcomp.NewFactorPAL(), core.SessionOptions{
			Input: distcomp.EncodeRequest(&distcomp.Request{
				SealedKey: resp.SealedKey, Envelope: resp.Envelope,
				WorkBudget: 7400 * time.Millisecond, // ~8.3 s sessions
			}),
			TwoStage: true,
		})
		if err != nil || contRes.PALError != nil {
			return nil, fmt.Errorf("bench: 7.5 session: %v %v", err, contRes.PALError)
		}
		if resp, err = distcomp.DecodeResponse(contRes.Outputs); err != nil {
			return nil, err
		}
		// The OS runs for ~37 ms between sessions; the driver pumps I/O.
		for !cp.Done() {
			n, err := cp.Pump(256 * 1024)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
		}
		deferred = cp.Deferred
	}
	// Finish any remaining copy work after the sessions.
	for !cp.Done() {
		if _, err := cp.Pump(1 << 20); err != nil {
			return nil, err
		}
	}
	srcSum, err := src.Checksum(0, fileSize)
	if err != nil {
		return nil, err
	}
	dstSum, err := dst.Checksum(0, fileSize)
	if err != nil {
		return nil, err
	}
	intact := 0.0
	if bytes.Equal(srcSum[:], dstSum[:]) {
		intact = 1
	}
	return &Table{
		ID:    "Section 7.5",
		Title: "Block-device integrity across repeated 8.3 s Flicker sessions",
		Rows: []Row{
			{"I/O errors reported", 0, float64(cp.IOErrors), "count"},
			{"md5 checksums match", 1, intact, "bool"},
			{"transfers deferred during sessions", 0, float64(deferred), "count (informational)"},
		},
		Notes: "paper: 'the kernel did not report any I/O errors, and integrity checks with md5sum confirmed...'",
	}, nil
}

// AblationTPMProfiles compares the three latency profiles across the
// session-critical operations — the paper's discussion of the Infineon TPM
// and of the next-generation hardware recommendations [19].
func AblationTPMProfiles() (*Table, error) {
	t := &Table{
		ID:    "Ablation",
		Title: "TPM profile ablation: per-operation latency (ms)",
		Notes: "broadcom = paper's primary platform; infineon = paper's faster comparison; future = [19] recommendations",
	}
	for _, prof := range []*simtime.Profile{
		simtime.ProfileBroadcom(), simtime.ProfileInfineon(), simtime.ProfileFuture(),
	} {
		p, err := core.NewPlatform(core.PlatformConfig{
			Seed:    "bench-abl-" + prof.Name,
			Profile: prof,
		})
		if err != nil {
			return nil, err
		}
		// Measure one SSH login session end to end under this profile.
		ca3, err := attest.NewPrivacyCA([]byte("abl-ca"), 0)
		if err != nil {
			return nil, err
		}
		tqd, err := attest.NewDaemon(p.OSTPM(), tpm.Digest{}, ca3, "abl")
		if err != nil {
			return nil, err
		}
		srv := sshauth.NewServer(p, tqd)
		srv.AddUser("u", "pw", "ablsalts")
		client := sshauth.NewClient(ca3.PublicKey(), []byte("abl"))
		n := client.FreshNonce()
		sr, err := srv.Setup(n)
		if err != nil {
			return nil, err
		}
		if err := client.TrustSetup(sr, n); err != nil {
			return nil, err
		}
		ln := srv.FreshNonce()
		ct, err := client.Encrypt("pw", ln)
		if err != nil {
			return nil, err
		}
		start := p.Clock.Now()
		if err := srv.Login("u", ct, ln); err != nil {
			return nil, err
		}
		login := p.Clock.Now() - start
		t.Rows = append(t.Rows,
			Row{prof.Name + ": quote", 0, ms(prof.TPMQuote), "ms"},
			Row{prof.Name + ": unseal", 0, ms(prof.TPMUnseal), "ms"},
			Row{prof.Name + ": SKINIT (4736 B stub)", 0, ms(prof.SkinitCost(4736)), "ms"},
			Row{prof.Name + ": SSH login session", 0, ms(login), "ms"},
		)
	}
	return t, nil
}
