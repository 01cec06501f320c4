package cpu

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"flicker/internal/hw/tis"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

// testMachine builds a 2-core machine with 1 MB RAM and a Broadcom-profile
// TPM on a shared deterministic clock.
func testMachine(t *testing.T, cores int) (*Machine, *tpm.TPM, *simtime.Clock) {
	t.Helper()
	clock := simtime.New()
	prof := simtime.ProfileBroadcom()
	tp, err := tpm.New(clock, prof, tpm.Options{Seed: []byte("cpu-test")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(clock, prof, tis.NewBus(tp), Config{Cores: cores, MemSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return m, tp, clock
}

// writeSLB stores a minimal SLB (header + body) at base and returns its
// full contents.
func writeSLB(t *testing.T, m *Machine, base uint32, bodyLen int) []byte {
	t.Helper()
	slb := make([]byte, 4+bodyLen)
	binary.LittleEndian.PutUint16(slb[0:2], uint16(len(slb))) // length
	binary.LittleEndian.PutUint16(slb[2:4], 4)                // entry point
	for i := 4; i < len(slb); i++ {
		slb[i] = byte(i)
	}
	if err := m.Mem.Write(base, slb); err != nil {
		t.Fatal(err)
	}
	return slb
}

// parkAPs deschedules and INITs all APs, the flicker-module's job.
func parkAPs(t *testing.T, m *Machine) {
	t.Helper()
	for _, c := range m.Cores()[1:] {
		if err := m.SetCoreIdle(c.ID, true); err != nil {
			t.Fatal(err)
		}
		if err := m.SendINITIPI(c.ID); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSKINITHappyPath(t *testing.T) {
	m, tp, _ := testMachine(t, 2)
	slb := writeSLB(t, m, 0x10000, 1000)
	parkAPs(t, m)

	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatalf("SKINIT: %v", err)
	}
	// Header parsed.
	if int(ll.SLBLen) != len(slb) || ll.Entry != 4 {
		t.Errorf("header: len=%d entry=%d", ll.SLBLen, ll.Entry)
	}
	// PCR 17 = H(0 || H(SLB)).
	want := tpm.ExtendDigest(tpm.Digest{}, palcrypto.SHA1Sum(slb))
	if tp.PCRValue(17) != want {
		t.Error("PCR 17 wrong after SKINIT")
	}
	if ll.PCR17 != want {
		t.Error("LateLaunch.PCR17 wrong")
	}
	// Hardware protections.
	if !m.Mem.DEVProtected(0x10000, SLBMaxLen) {
		t.Error("DEV not programmed over 64 KB window")
	}
	if m.BSP().InterruptsEnabled() {
		t.Error("interrupts still enabled")
	}
	if !m.DebugDisabled() {
		t.Error("debug access not disabled")
	}
	if !m.SecureSessionActive() {
		t.Error("secure session not active")
	}
	// Flat protected mode at slb_base, paging off.
	if m.BSP().PagingEnabled() {
		t.Error("paging still enabled")
	}
	if base, _ := m.BSP().Segments(); base != 0x10000 {
		t.Errorf("segment base = %#x, want SLB base", base)
	}

	// End restores everything.
	if err := ll.End(); err != nil {
		t.Fatal(err)
	}
	if m.Mem.DEVProtected(0x10000, SLBMaxLen) {
		t.Error("DEV still set after End")
	}
	if !m.BSP().InterruptsEnabled() {
		t.Error("interrupts not restored")
	}
	if m.DebugDisabled() || m.SecureSessionActive() {
		t.Error("secure state not cleared")
	}
	if err := ll.End(); err == nil {
		t.Error("double End accepted")
	}
}

func TestSKINITRequiresRing0(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	m.BSP().SetRing(3)
	if err := m.SKINIT(0, 0x10000, new(LateLaunch)); err == nil || !strings.Contains(err.Error(), "privileged") {
		t.Fatalf("ring-3 SKINIT: %v", err)
	}
}

func TestSKINITRequiresBSP(t *testing.T) {
	m, _, _ := testMachine(t, 2)
	writeSLB(t, m, 0x10000, 100)
	parkAPs(t, m)
	if err := m.SKINIT(1, 0x10000, new(LateLaunch)); err == nil || !strings.Contains(err.Error(), "BSP") {
		t.Fatalf("AP SKINIT: %v", err)
	}
}

func TestSKINITRequiresAPsInINIT(t *testing.T) {
	m, _, _ := testMachine(t, 4)
	writeSLB(t, m, 0x10000, 100)
	// APs still running: must fail.
	if err := m.SKINIT(0, 0x10000, new(LateLaunch)); err == nil {
		t.Fatal("SKINIT with running APs accepted")
	}
	// Idle but not INIT'd: still fails.
	for _, c := range m.Cores()[1:] {
		m.SetCoreIdle(c.ID, true)
	}
	if err := m.SKINIT(0, 0x10000, new(LateLaunch)); err == nil {
		t.Fatal("SKINIT with idle-but-not-INIT APs accepted")
	}
	// INIT everyone: succeeds.
	for _, c := range m.Cores()[1:] {
		if err := m.SendINITIPI(c.ID); err != nil {
			t.Fatal(err)
		}
	}
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	ll.End()
}

func TestINITIPIRejectsRunningCore(t *testing.T) {
	m, _, _ := testMachine(t, 2)
	if err := m.SendINITIPI(1); err == nil {
		t.Fatal("INIT IPI to running core accepted")
	}
	m.SetCoreIdle(1, true)
	if err := m.SendINITIPI(1); err != nil {
		t.Fatal(err)
	}
	// Idempotent on an already-halted core.
	if err := m.SendINITIPI(1); err != nil {
		t.Fatal(err)
	}
	if err := m.StartupAP(1); err != nil {
		t.Fatal(err)
	}
	if m.Cores()[1].State() != CoreRunning {
		t.Fatal("SIPI did not restart core")
	}
	if err := m.SendINITIPI(0); err == nil {
		t.Fatal("INIT IPI to BSP accepted")
	}
}

func TestSKINITHeaderValidation(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	// Zero length.
	m.Mem.Write(0x10000, []byte{0, 0, 0, 0})
	if err := m.SKINIT(0, 0x10000, new(LateLaunch)); err == nil {
		t.Error("zero-length SLB accepted")
	}
	// Entry beyond length.
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint16(hdr[0:2], 8)
	binary.LittleEndian.PutUint16(hdr[2:4], 100)
	m.Mem.Write(0x10000, hdr)
	if err := m.SKINIT(0, 0x10000, new(LateLaunch)); err == nil {
		t.Error("entry>length SLB accepted")
	}
	// Header outside physical memory.
	if err := m.SKINIT(0, uint32(m.Mem.Size()), new(LateLaunch)); err == nil {
		t.Error("out-of-range SLB base accepted")
	}
}

func TestSKINITBlocksNestedLaunch(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	writeSLB(t, m, 0x30000, 100)
	if err := m.SKINIT(0, 0x30000, new(LateLaunch)); err == nil {
		t.Fatal("nested SKINIT accepted")
	}
	ll.End()
}

func TestDMABlockedDuringSession(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	nic := m.Mem.AttachDevice("evil-nic")
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	// The whole 64 KB window is excluded, even though the SLB is tiny.
	if _, err := nic.Read(0x10000+60000, 16); err == nil {
		t.Error("DMA read inside 64 KB window succeeded")
	}
	if err := nic.Write(0x10000+8, []byte{0xBA, 0xD0}); err == nil {
		t.Error("DMA write into SLB succeeded")
	}
	ll.End()
	if _, err := nic.Read(0x10000, 16); err != nil {
		t.Errorf("DMA still blocked after session end: %v", err)
	}
}

func TestExtendProtection(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	dev := m.Mem.AttachDevice("dev")
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	upper := uint32(0x10000 + SLBMaxLen)
	if _, err := dev.Read(upper, 8); err != nil {
		t.Fatalf("upper region should be DMA-accessible before extension: %v", err)
	}
	if err := ll.ExtendProtection(upper, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Read(upper, 8); err == nil {
		t.Error("extended protection not effective")
	}
	ll.End()
	// End only clears the primary window; extended regions are the PAL's
	// responsibility (mirrors the paper's preparatory-code contract).
	if err := ll.ExtendProtection(upper, 4096); err == nil {
		t.Error("ExtendProtection accepted after End")
	}
	m.Mem.DEVClear(upper, 4096)
}

func TestInterruptsQueueDuringSession(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	var ll LateLaunch
	m.SKINIT(0, 0x10000, &ll)
	m.PendInterrupt(1)  // keyboard
	m.PendInterrupt(14) // disk
	if got := m.DrainInterrupts(); got != nil {
		t.Fatalf("interrupts delivered while disabled: %v", got)
	}
	if m.PendingInterruptCount() != 2 {
		t.Fatal("pending interrupts lost")
	}
	ll.End()
	got := m.DrainInterrupts()
	if len(got) != 2 || got[0] != 1 || got[1] != 14 {
		t.Fatalf("drained %v after resume", got)
	}
}

func TestSKINITTimingMatchesTable2Model(t *testing.T) {
	prof := simtime.ProfileBroadcom()
	// The SLB length field is 16 bits, so the largest representable SLB is
	// 65535 bytes; "64 KB" in Table 2 maps to the full window minus header.
	for _, total := range []int{4 * 1024, 16 * 1024, 32 * 1024, 64*1024 - 4} {
		m, _, clock := testMachine(t, 1)
		slb := writeSLB(t, m, 0x10000, total-4)
		before := clock.Now()
		var ll LateLaunch
		if err := m.SKINIT(0, 0x10000, &ll); err != nil {
			t.Fatal(err)
		}
		got := clock.Now() - before
		want := prof.SkinitCost(len(slb))
		if got != want {
			t.Errorf("%d-byte SLB: charged %v, want %v", total, got, want)
		}
		ll.End()
	}
}

func TestSKINITMeasuresOnlyDeclaredLength(t *testing.T) {
	// The Section 7.2 optimization depends on SKINIT transferring only
	// SLB.length bytes while the DEV covers the full 64 KB.
	m, tp, _ := testMachine(t, 1)
	short := writeSLB(t, m, 0x10000, 732) // 736-byte SLB
	// Garbage beyond the declared length must not affect the measurement.
	m.Mem.Write(0x10000+736, bytes.Repeat([]byte{0x55}, 1024))
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	want := tpm.ExtendDigest(tpm.Digest{}, palcrypto.SHA1Sum(short))
	if tp.PCRValue(17) != want {
		t.Error("measurement included bytes beyond SLB length")
	}
	ll.End()
}

func TestNewMachineValidation(t *testing.T) {
	clock := simtime.New()
	prof := simtime.ProfileBroadcom()
	tp, _ := tpm.New(clock, prof, tpm.Options{Seed: []byte("x")})
	if _, err := NewMachine(clock, prof, tis.NewBus(tp), Config{Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	m, err := NewMachine(clock, prof, tis.NewBus(tp), Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mem.Size() != 16<<20 {
		t.Fatalf("default memory = %d", m.Mem.Size())
	}
}

func TestSKINITAbortRestoresState(t *testing.T) {
	// A mid-flight SKINIT failure (SLB declared length runs past physical
	// memory) must unwind the partial hardware state: DEV cleared,
	// interrupts restored, no secure session left dangling.
	m, _, _ := testMachine(t, 1)
	base := uint32(m.Mem.Size() - 4096) // header fits, body does not
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint16(hdr[0:2], 16*1024) // length reaches past memory
	binary.LittleEndian.PutUint16(hdr[2:4], 4)
	if err := m.Mem.Write(base, hdr); err != nil {
		t.Fatal(err)
	}
	if err := m.SKINIT(0, base, new(LateLaunch)); err == nil {
		t.Fatal("SKINIT with out-of-memory SLB accepted")
	}
	if m.SecureSessionActive() || m.DebugDisabled() {
		t.Error("aborted launch left secure state set")
	}
	if !m.BSP().InterruptsEnabled() {
		t.Error("aborted launch left interrupts masked")
	}
	// A clean launch works afterwards.
	writeSLB(t, m, 0x10000, 100)
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	ll.End()
}
