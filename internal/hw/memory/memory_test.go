package memory

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flicker/internal/metrics"
)

func TestNewRoundsUpToPage(t *testing.T) {
	m := New(1)
	if m.Size() != PageSize {
		t.Fatalf("Size = %d, want %d", m.Size(), PageSize)
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(64 * 1024)
	data := []byte("flicker session state")
	if err := m.Write(1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(1000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
	into := make([]byte, len(data))
	if err := m.ReadInto(1000, into); err != nil || !bytes.Equal(into, data) {
		t.Fatalf("ReadInto = %q, %v; want %q", into, err, data)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	m := New(PageSize)
	if _, err := m.Read(uint32(PageSize), 1); err == nil {
		t.Error("read past end accepted")
	}
	if err := m.ReadInto(uint32(PageSize-1), make([]byte, 2)); err == nil {
		t.Error("ReadInto past end accepted")
	}
	if err := m.Write(uint32(PageSize-1), []byte{1, 2}); err == nil {
		t.Error("write past end accepted")
	}
	var ae *AccessError
	_, err := m.Read(1<<30, 4)
	if !errors.As(err, &ae) {
		t.Errorf("expected AccessError, got %v", err)
	}
}

func TestZeroErasesSecrets(t *testing.T) {
	m := New(2 * PageSize)
	secret := []byte("private signing key material")
	m.Write(100, secret)
	if err := m.Zero(100, len(secret)); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(100, len(secret))
	if !bytes.Equal(got, make([]byte, len(secret))) {
		t.Fatal("Zero left residue")
	}
}

func TestDEVBlocksDMAButNotCPU(t *testing.T) {
	m := New(32 * PageSize) // 128 KB: room for a full 64 KB SLB region
	nic := m.AttachDevice("malicious-nic")
	// Stage a secret in what will become the SLB region.
	slbBase := uint32(4 * PageSize)
	m.Write(slbBase, []byte("PAL secret"))

	// Before protection, the device can read it (the attack works).
	if _, err := nic.Read(slbBase, 10); err != nil {
		t.Fatalf("pre-protection DMA read should succeed: %v", err)
	}

	if err := m.DEVProtect(slbBase, 64*1024); err != nil {
		t.Fatal(err)
	}
	if !m.DEVProtected(slbBase, 64*1024) {
		t.Fatal("DEVProtected = false after protect")
	}

	// DMA read and write are now blocked...
	if _, err := nic.Read(slbBase, 10); err == nil {
		t.Error("DEV failed to block DMA read")
	}
	if err := nic.Write(slbBase+100, []byte{0xEE}); err == nil {
		t.Error("DEV failed to block DMA write")
	}
	// ...but CPU accesses still work (the PAL runs on the CPU).
	if _, err := m.Read(slbBase, 10); err != nil {
		t.Errorf("CPU read blocked by DEV: %v", err)
	}
}

func TestDEVPartialOverlapBlocks(t *testing.T) {
	m := New(16 * PageSize)
	dev := m.AttachDevice("disk")
	m.DEVProtect(uint32(2*PageSize), PageSize)
	// A transfer straddling the protected page must be rejected entirely.
	if _, err := dev.Read(uint32(2*PageSize-8), 16); err == nil {
		t.Error("straddling DMA read accepted")
	}
	// A transfer entirely outside is fine.
	if _, err := dev.Read(uint32(4*PageSize), 16); err != nil {
		t.Errorf("unrelated DMA read blocked: %v", err)
	}
}

func TestDEVClearRestoresDMA(t *testing.T) {
	m := New(8 * PageSize)
	dev := m.AttachDevice("nic")
	m.DEVProtect(0, 2*PageSize)
	if err := m.DEVClear(0, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if m.DEVProtected(0, PageSize) {
		t.Error("still protected after clear")
	}
	if _, err := dev.Read(0, 64); err != nil {
		t.Errorf("DMA still blocked after clear: %v", err)
	}
}

func TestDEVProtectedEdgeCases(t *testing.T) {
	m := New(4 * PageSize)
	if m.DEVProtected(0, 0) {
		t.Error("zero-length range reported protected")
	}
	if m.DEVProtected(uint32(m.Size()), 1) {
		t.Error("out-of-range reported protected")
	}
	m.DEVProtect(0, PageSize)
	if m.DEVProtected(0, 2*PageSize) {
		t.Error("partially protected range reported fully protected")
	}
}

func TestDEVBlockedDMAWriteCountsMetricOnce(t *testing.T) {
	m := New(8 * PageSize)
	reg := metrics.NewRegistry()
	log := metrics.NewEventLog(0)
	m.Instrument(reg, log)
	nic := m.AttachDevice("nic")
	if err := m.DEVProtect(0, PageSize); err != nil {
		t.Fatal(err)
	}

	if err := nic.Write(64, []byte{1, 2, 3}); err == nil {
		t.Fatal("DEV failed to block the DMA write")
	}
	violations := reg.Counter("flicker_dev_violations_total", "", "device", "op")
	if got := violations.With("nic", "write").Value(); got != 1 {
		t.Errorf("dev-violation counter = %v, want exactly 1", got)
	}
	tx := reg.Counter("flicker_dma_transactions_total", "", "device", "op", "result")
	if got := tx.With("nic", "write", "dev-blocked").Value(); got != 1 {
		t.Errorf("dev-blocked transaction counter = %v, want exactly 1", got)
	}
	if got := tx.With("nic", "write", "ok").Value(); got != 0 {
		t.Errorf("ok transaction counter = %v, want 0", got)
	}
	events := log.EventsByKind(metrics.EventDEVViolation)
	if len(events) != 1 {
		t.Fatalf("DEV-violation events = %d, want 1: %+v", len(events), events)
	}

	// A permitted DMA transaction counts bytes but no violation.
	if err := nic.Write(uint32(4*PageSize), []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	bytesMoved := reg.Counter("flicker_dma_bytes_total", "", "device", "op")
	if got := bytesMoved.With("nic", "write").Value(); got != 2 {
		t.Errorf("dma bytes = %v, want 2", got)
	}
	if got := violations.With("nic", "write").Value(); got != 1 {
		t.Errorf("violation counter moved on permitted DMA: %v", got)
	}
}

// Property: for any in-range write, a read of the same range returns the
// written bytes, and DMA behaves identically to CPU access when no DEV
// protection overlaps.
func TestReadWriteProperty(t *testing.T) {
	m := New(64 * PageSize)
	dev := m.AttachDevice("prop")
	f := func(addrRaw uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := uint32(addrRaw)
		if int(addr)+len(data) > m.Size() {
			return true
		}
		if err := m.Write(addr, data); err != nil {
			return false
		}
		cpu, err := m.Read(addr, len(data))
		if err != nil || !bytes.Equal(cpu, data) {
			return false
		}
		dma, err := dev.Read(addr, len(data))
		return err == nil && bytes.Equal(dma, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: protect+clear over arbitrary ranges always leaves the DEV
// consistent: after clearing everything we protected, no page blocks DMA.
func TestDEVProtectClearProperty(t *testing.T) {
	f := func(ranges [][2]uint16) bool {
		m := New(32 * PageSize)
		dev := m.AttachDevice("p")
		for _, r := range ranges {
			addr := uint32(r[0]) % uint32(m.Size())
			n := int(r[1])%PageSize + 1
			if int(addr)+n > m.Size() {
				continue
			}
			m.DEVProtect(addr, n)
		}
		m.DEVClear(0, m.Size())
		_, err := dev.Read(0, m.Size())
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Write-generation tracking -------------------------------------------

// Generation must change after any mutation (CPU write, zero, DMA write)
// that lands inside the observed range, and must be stable across reads and
// mutations elsewhere. This is the invariant SKINIT's measurement cache
// depends on for tamper soundness.
func TestGenerationBumpsOnEveryMutationKind(t *testing.T) {
	m := New(8 * PageSize)
	region := uint32(PageSize)
	n := 2 * PageSize

	g0 := m.Generation(region, n)
	if _, err := m.Read(region, n); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(region, n); g != g0 {
		t.Fatalf("generation moved on read: %d -> %d", g0, g)
	}

	if err := m.Write(region+10, []byte{1}); err != nil {
		t.Fatal(err)
	}
	g1 := m.Generation(region, n)
	if g1 == g0 {
		t.Fatal("generation unchanged after CPU write into region")
	}

	if err := m.Zero(region, PageSize); err != nil {
		t.Fatal(err)
	}
	g2 := m.Generation(region, n)
	if g2 == g1 {
		t.Fatal("generation unchanged after Zero into region")
	}

	dev := m.AttachDevice("nic")
	if err := dev.Write(region+PageSize+5, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	g3 := m.Generation(region, n)
	if g3 == g2 {
		t.Fatal("generation unchanged after DMA write into region")
	}

	// Mutation outside the observed range must not disturb it.
	if err := m.Write(4*PageSize, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(region, n); g != g3 {
		t.Fatalf("generation moved on out-of-range write: %d -> %d", g3, g)
	}
}

// WriteIfChanged of identical bytes must be generation-neutral; a single
// differing byte must bump only that page.
func TestWriteIfChangedGenerationNeutralWhenIdentical(t *testing.T) {
	m := New(8 * PageSize)
	img := make([]byte, 3*PageSize)
	for i := range img {
		img[i] = byte(i)
	}
	if err := m.Write(0, img); err != nil {
		t.Fatal(err)
	}
	g0 := m.Generation(0, len(img))

	changed, err := m.WriteIfChanged(0, img)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("WriteIfChanged reported a change for identical bytes")
	}
	if g := m.Generation(0, len(img)); g != g0 {
		t.Fatalf("generation moved on no-op WriteIfChanged: %d -> %d", g0, g)
	}

	img[2*PageSize+7] ^= 0xFF
	changed, err = m.WriteIfChanged(0, img)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("WriteIfChanged missed a real change")
	}
	if g := m.Generation(0, 2*PageSize); g != g0 {
		t.Fatalf("untouched pages bumped: %d -> %d", g0, m.Generation(0, 2*PageSize))
	}
	if g := m.Generation(2*PageSize, PageSize); g == g0 {
		t.Fatal("changed page not bumped")
	}
	got, err := m.Read(0, len(img))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("WriteIfChanged left wrong contents")
	}
}

// WriteIfChangedGen returns the generation of the prefix it is asked about
// as it stands after the whole write: unchanged for identical bytes, and
// untouched by a change past the prefix's pages.
func TestWriteIfChangedGenReportsPrefixGeneration(t *testing.T) {
	m := New(8 * PageSize)
	img := bytes.Repeat([]byte{0x5A}, 3*PageSize)
	const prefix = PageSize + 10
	g0, err := m.WriteIfChangedGen(PageSize, img, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(PageSize, prefix); g0 == 0 || g != g0 {
		t.Fatalf("WriteIfChangedGen = %d, Generation after it %d", g0, g)
	}
	if g, err := m.WriteIfChangedGen(PageSize, img, prefix); err != nil || g != g0 {
		t.Fatalf("identical rewrite: %d, %v; want %d", g, err, g0)
	}
	img[len(img)-1] ^= 0xFF
	if g, err := m.WriteIfChangedGen(PageSize, img, prefix); err != nil || g != g0 {
		t.Fatalf("change past the prefix: %d, %v; want %d", g, err, g0)
	}
	img[prefix-1] ^= 0xFF
	if g, err := m.WriteIfChangedGen(PageSize, img, prefix); err != nil || g <= g0 {
		t.Fatalf("change inside the prefix: %d, %v; want more than %d", g, err, g0)
	}
	if _, err := m.WriteIfChangedGen(7*PageSize, img, prefix); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

// ZeroIfDirty over an already-clean range is generation-neutral; over a
// dirty range it erases and bumps.
func TestZeroIfDirtyGenerationNeutralWhenClean(t *testing.T) {
	m := New(4 * PageSize)
	g0 := m.Generation(0, 2*PageSize)
	changed, err := m.ZeroIfDirty(0, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("ZeroIfDirty reported a change on clean memory")
	}
	if g := m.Generation(0, 2*PageSize); g != g0 {
		t.Fatal("generation moved on no-op ZeroIfDirty")
	}

	if err := m.Write(PageSize+3, []byte{0x55}); err != nil {
		t.Fatal(err)
	}
	g1 := m.Generation(0, 2*PageSize)
	changed, err = m.ZeroIfDirty(0, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("ZeroIfDirty missed dirty bytes")
	}
	if g := m.Generation(0, 2*PageSize); g == g1 {
		t.Fatal("changed page not bumped")
	}
	got, err := m.Read(0, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d not erased: %#x", i, b)
		}
	}
}

// Generation is collision-free across an intervening mutation: observe,
// mutate, restore the original bytes — the generation must still differ,
// because writeSeq is monotonic. (A checksum-based scheme would collide.)
func TestGenerationMonotonicNoABA(t *testing.T) {
	m := New(4 * PageSize)
	orig := []byte("slb image bytes")
	if err := m.Write(0, orig); err != nil {
		t.Fatal(err)
	}
	g0 := m.Generation(0, len(orig))
	if err := m.Write(0, []byte("tampered bytes!")); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, orig); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(0, len(orig)); g == g0 {
		t.Fatal("generation repeated after tamper-and-restore (ABA)")
	}
}

// An empty range covers no page: DEVProtect and DEVClear with n == 0 leave
// every page as it was, whether addr is page-aligned, mid-page, zero, or the
// end of memory. (Computing the last page as (addr+n-1)/PageSize would
// touch the page holding addr-1.)
func TestDEVEmptyRangeIsNoOp(t *testing.T) {
	const pages = 4
	for _, addr := range []uint32{0, PageSize, 5000, 2*PageSize - 1, pages * PageSize} {
		m := New(pages * PageSize)
		if err := m.DEVProtect(addr, 0); err != nil {
			t.Fatalf("DEVProtect(%d, 0): %v", addr, err)
		}
		for p := 0; p < pages; p++ {
			if m.DEVProtected(uint32(p*PageSize), PageSize) {
				t.Errorf("DEVProtect(%d, 0) excluded page %d", addr, p)
			}
		}
		if err := m.DEVProtect(0, pages*PageSize); err != nil {
			t.Fatal(err)
		}
		if err := m.DEVClear(addr, 0); err != nil {
			t.Fatalf("DEVClear(%d, 0): %v", addr, err)
		}
		for p := 0; p < pages; p++ {
			if !m.DEVProtected(uint32(p*PageSize), PageSize) {
				t.Errorf("DEVClear(%d, 0) un-excluded page %d", addr, p)
			}
		}
	}
}
