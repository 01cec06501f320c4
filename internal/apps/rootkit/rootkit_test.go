package rootkit

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/netsim"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

// fixture boots a host platform with some modules loaded, a tqd, and an
// admin who derived the known-good hash from an identical golden image.
type fixture struct {
	host  *Host
	admin *Admin
	link  *netsim.Link
	p     *core.Platform
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "rk-test", MemSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		size int
	}{{"ext3", 96 * 1024}, {"e1000", 128 * 1024}, {"tpm_tis", 32 * 1024}} {
		if _, err := p.Kernel.LoadModule(m.name, m.size); err != nil {
			t.Fatal(err)
		}
	}
	ca, err := attest.NewPrivacyCA([]byte("rk-ca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	tqd, err := attest.NewDaemon(p.OSTPM(), tpm.Digest{}, ca, "laptop-42")
	if err != nil {
		t.Fatal(err)
	}
	admin := NewAdmin(ca.PublicKey(), []byte("admin-nonces"))
	// Golden image: a twin platform with the same kernel build.
	golden, err := core.NewPlatform(core.PlatformConfig{Seed: "rk-test", MemSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		size int
	}{{"ext3", 96 * 1024}, {"e1000", 128 * 1024}, {"tpm_tis", 32 * 1024}} {
		golden.Kernel.LoadModule(m.name, m.size)
	}
	known, err := KnownGoodFor(golden.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	admin.AddKnownGood(known)
	link := netsim.PaperLink(p.Clock)
	link.Instrument(p.Metrics, "admin")
	return &fixture{
		host:  NewHost(p, tqd),
		admin: admin,
		link:  link,
		p:     p,
	}
}

func TestCleanKernelPasses(t *testing.T) {
	f := newFixture(t)
	out := f.admin.Query(f.link, f.host, f.p.Kernel.MeasurableRegions())
	if out.Err != nil {
		t.Fatalf("query failed: %v", out.Err)
	}
	if !out.Verified {
		t.Fatal("attestation did not verify")
	}
	if !out.Clean {
		t.Fatal("clean kernel reported dirty")
	}
	// The admin link's traffic landed in the platform's registry.
	if st := f.link.Stats(); st.RoundTrips < 1 || st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Errorf("link stats not accounted: %+v", st)
	}
	rts := f.p.Metrics.Counter("flicker_net_roundtrips_total", "", "link")
	if got := rts.With("admin").Value(); got < 1 {
		t.Errorf("registry roundtrips = %v, want >= 1", got)
	}
}

func TestSyscallHookDetected(t *testing.T) {
	f := newFixture(t)
	if err := f.p.Kernel.InstallRootkit("adore-ng", []int{2, 11, 39}); err != nil {
		t.Fatal(err)
	}
	out := f.admin.Query(f.link, f.host, f.p.Kernel.MeasurableRegions())
	if out.Err != nil || !out.Verified {
		t.Fatalf("query failed: %v", out.Err)
	}
	if out.Clean {
		t.Fatal("syscall-table rootkit not detected")
	}
}

func TestInlineTextHookDetected(t *testing.T) {
	f := newFixture(t)
	if err := f.p.Kernel.PatchKernelText(0x1234, []byte{0xE9, 0x00, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	out := f.admin.Query(f.link, f.host, f.p.Kernel.MeasurableRegions())
	if out.Err != nil || !out.Verified {
		t.Fatalf("query failed: %v", out.Err)
	}
	if out.Clean {
		t.Fatal("inline text hook not detected")
	}
}

func TestLyingHostCaughtByAttestation(t *testing.T) {
	// A compromised host runs the detection honestly but then rewrites the
	// digest in the report to the known-good value. The attestation covers
	// the PAL's output, so the forgery must fail verification.
	f := newFixture(t)
	f.p.Kernel.InstallRootkit("suckit", []int{1})
	regions := f.p.Kernel.MeasurableRegions()
	nonce := f.admin.freshNonce()
	report, err := f.host.HandleQuery(regions, nonce)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the digest to the admin's known-good value.
	var forged tpm.Digest
	for d := range f.admin.KnownGood {
		forged = d
	}
	report.Digest = forged
	out := f.admin.VerifyReport(report, nonce, regions)
	if out.Err == nil || out.Verified {
		t.Fatal("forged report verified")
	}
}

func TestShrunkRegionListCaught(t *testing.T) {
	// A compromised host hashes fewer regions (skipping the hooked syscall
	// table) hoping the admin won't notice. The region list is the PAL's
	// input and is extended into PCR 17, so the verifier sees it.
	f := newFixture(t)
	f.p.Kernel.InstallRootkit("skippy", []int{7})
	full := f.p.Kernel.MeasurableRegions()
	partial := full[:1] // text only, skipping the syscall table
	nonce := f.admin.freshNonce()
	report, err := f.host.HandleQuery(partial, nonce)
	if err != nil {
		t.Fatal(err)
	}
	// The admin verifies against the region list IT requested.
	out := f.admin.VerifyReport(report, nonce, full)
	if out.Err == nil || out.Verified {
		t.Fatal("report over shrunk region list verified against full list")
	}
}

func TestQueryLatencyMatchesTable1(t *testing.T) {
	// End-to-end: "the average query time was 1.02 seconds" (Section 7.2),
	// dominated by the 972.7 ms Broadcom TPM quote.
	f := newFixture(t)
	start := f.p.Clock.Now()
	rec := f.p.Clock.Record()
	out := f.admin.Query(f.link, f.host, f.p.Kernel.MeasurableRegions())
	charges := rec.Stop()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	total := simtime.Millis(f.p.Clock.Now() - start)
	if total < 980 || total > 1070 {
		t.Fatalf("end-to-end query latency = %.1f ms, want ~1020 ms", total)
	}
	// Breakdown sanity (Table 1): quote dominates.
	var quoteD time.Duration
	for _, ch := range charges {
		if ch.Label == "tpm.quote" {
			quoteD += ch.Duration
		}
	}
	quote := simtime.Millis(quoteD)
	if quote < 970 || quote > 976 {
		t.Fatalf("quote = %.1f ms, want 972.7", quote)
	}
}

func TestDetectorSLBSizeGivesPaperSkinit(t *testing.T) {
	im, err := core.BuildImage(NewDetectorPAL(), false)
	if err != nil {
		t.Fatal(err)
	}
	cost := simtime.Millis(simtime.ProfileBroadcom().SkinitCost(im.MeasuredLen()))
	// Table 1 reports SKINIT 15.4 ms for the detector's SLB.
	if cost < 14.9 || cost > 15.9 {
		t.Fatalf("detector SKINIT = %.2f ms (SLB %d bytes), want ~15.4", cost, im.MeasuredLen())
	}
}

func TestRegionCodecRoundTrip(t *testing.T) {
	f := func(pairs [][2]uint32) bool {
		enc := EncodeRegions(pairs)
		dec, err := DecodeRegions(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(pairs) {
			return false
		}
		for i := range dec {
			if dec[i] != pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Malformed inputs are rejected.
	if _, err := DecodeRegions([]byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := DecodeRegions([]byte{0, 0, 1, 0}); err == nil {
		t.Error("overflowing count accepted")
	}
}

func TestBadRegionFailsCleanly(t *testing.T) {
	f := newFixture(t)
	// Region beyond physical memory: PAL error, not a crash.
	_, err := f.host.HandleQuery([][2]uint32{{0xFFFF0000, 1 << 20}}, tpm.Digest{})
	if err == nil || !strings.Contains(err.Error(), "detector") {
		t.Fatalf("err = %v", err)
	}
	// The platform still works.
	out := f.admin.Query(f.link, f.host, f.p.Kernel.MeasurableRegions())
	if out.Err != nil || !out.Clean {
		t.Fatalf("follow-up query: %+v", out)
	}
}

func TestSystemImpactNegligible(t *testing.T) {
	// Table 3: periodic detection has negligible impact on a kernel build.
	// Scaled-down version of the bench: a 30 s build with detection every
	// 5 s costs well under 1% extra.
	f := newFixture(t)
	regions := f.p.Kernel.MeasurableRegions()

	baseline, err := core.NewPlatform(core.PlatformConfig{Seed: "rk-base", MemSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	baseline.Kernel.Spawn("make", 30*time.Second)
	t0 := baseline.Clock.Now()
	baseline.Kernel.RunToCompletion()
	baseTime := baseline.Clock.Now() - t0

	// Only the Flicker session suspends the OS; the TPM quote runs on the
	// TPM chip while the build continues, so it is not part of the
	// suspension cost (Section 7.4.1: the quote "does not impact the
	// performance of other processes").
	f.p.Kernel.Spawn("make", 30*time.Second)
	t0 = f.p.Clock.Now()
	for {
		if f.p.Kernel.Run(5*time.Second) == 0 {
			break
		}
		res, err := f.p.RunSession(NewDetectorPAL(), core.SessionOptions{Input: EncodeRegions(regions)})
		if err != nil || res.PALError != nil {
			t.Fatalf("%v %v", err, res.PALError)
		}
	}
	withDetection := f.p.Clock.Now() - t0
	overhead := float64(withDetection-baseTime) / float64(baseTime)
	if overhead > 0.02 {
		t.Fatalf("detection overhead = %.2f%%, want < 2%%", overhead*100)
	}
}
