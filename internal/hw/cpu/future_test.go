package cpu

import (
	"bytes"
	"errors"
	"testing"

	"flicker/internal/hw/tis"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

// futureMachine builds a machine on the ProfileFuture capability set.
func futureMachine(t *testing.T, cores int) (*Machine, *tpm.TPM, *simtime.Clock) {
	t.Helper()
	clock := simtime.New()
	prof := simtime.ProfileFuture()
	tp, err := tpm.New(clock, prof, tpm.Options{Seed: []byte("future-cpu")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(clock, prof, tis.NewBus(tp), Config{Cores: cores, MemSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return m, tp, clock
}

func TestPartitionedLaunchHappyPath(t *testing.T) {
	m, tp, _ := futureMachine(t, 2)
	slb := writeSLB(t, m, 0x10000, 500)
	// NO AP parking — the whole point.
	var ll LateLaunch
	if err := m.SKINITPartitioned(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	if !ll.Partitioned {
		t.Error("launch not marked partitioned")
	}
	// Security contract unchanged: DEV + measurement.
	if !m.Mem.DEVProtected(0x10000, SLBMaxLen) {
		t.Error("DEV not programmed")
	}
	want := tpm.ExtendDigest(tpm.Digest{}, palcrypto.SHA1Sum(slb))
	if tp.PCRValue(17) != want {
		t.Error("PCR 17 wrong after partitioned launch")
	}
	// The other core is untouched and still takes interrupts.
	if m.Cores()[1].State() != CoreRunning {
		t.Error("AP disturbed by partitioned launch")
	}
	m.PendInterrupt(7)
	if got := m.DrainInterrupts(); len(got) != 1 || got[0] != 7 {
		t.Errorf("interrupt not deliverable: %v", got)
	}
	// But the launching core is masked.
	if m.BSP().InterruptsEnabled() {
		t.Error("secure core interrupts still enabled")
	}
	if err := ll.End(); err != nil {
		t.Fatal(err)
	}
	if m.Mem.DEVProtected(0x10000, SLBMaxLen) || !m.BSP().InterruptsEnabled() {
		t.Error("teardown incomplete")
	}
}

func TestPartitionedLaunchGatedByProfile(t *testing.T) {
	m, _, _ := testMachine(t, 2) // Broadcom profile
	writeSLB(t, m, 0x10000, 100)
	if err := m.SKINITPartitioned(0, 0x10000, new(LateLaunch)); !errors.Is(err, ErrNoMulticoreIsolation) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitionedLaunchValidation(t *testing.T) {
	m, _, _ := futureMachine(t, 2)
	// Ring 3 rejected.
	writeSLB(t, m, 0x10000, 100)
	m.BSP().SetRing(3)
	if err := m.SKINITPartitioned(0, 0x10000, new(LateLaunch)); err == nil {
		t.Error("ring-3 partitioned launch accepted")
	}
	m.BSP().SetRing(0)
	// Bad header rejected.
	m.Mem.Write(0x30000, []byte{0, 0, 0, 0})
	if err := m.SKINITPartitioned(0, 0x30000, new(LateLaunch)); err == nil {
		t.Error("zero-length SLB accepted")
	}
	// Invalid core.
	if err := m.SKINITPartitioned(9, 0x10000, new(LateLaunch)); err == nil {
		t.Error("invalid core accepted")
	}
	// Nested launch rejected.
	var ll LateLaunch
	if err := m.SKINITPartitioned(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	if err := m.SKINITPartitioned(0, 0x10000, new(LateLaunch)); err == nil {
		t.Error("nested partitioned launch accepted")
	}
	ll.End()
}

func TestStashLifecycle(t *testing.T) {
	m, _, _ := futureMachine(t, 1)
	id := palcrypto.SHA1Sum([]byte("pal-identity"))
	// Outside a session: inaccessible.
	if err := m.StashWrite(id, []byte("x")); err == nil {
		t.Fatal("stash writable outside a session")
	}
	writeSLB(t, m, 0x10000, 100)
	var ll LateLaunch
	if err := m.SKINITPartitioned(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	if err := m.StashWrite(id, []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	got, err := m.StashRead(id)
	if err != nil || !bytes.Equal(got, []byte("checkpoint")) {
		t.Fatalf("stash read: %q %v", got, err)
	}
	// Unknown identity.
	other := palcrypto.SHA1Sum([]byte("someone else"))
	if _, err := m.StashRead(other); err == nil {
		t.Error("read of missing identity succeeded")
	}
	// Capacity: one slot can hold the full store; a second identity is
	// then rejected until space frees.
	if err := m.StashWrite(id, make([]byte, StashCapacity)); err != nil {
		t.Fatal(err)
	}
	if err := m.StashWrite(other, []byte("x")); err == nil {
		t.Error("over-capacity write across identities accepted")
	}
	// Shrinking the first slot frees space.
	if err := m.StashWrite(id, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := m.StashWrite(other, []byte("fits now")); err != nil {
		t.Fatal(err)
	}
	ll.End()
	// After the session the store is sealed again, but contents persist
	// for the next session.
	if _, err := m.StashRead(id); err == nil {
		t.Error("stash readable after session end")
	}
	var ll2 LateLaunch
	m.SKINITPartitioned(0, 0x10000, &ll2)
	got, err = m.StashRead(id)
	if err != nil || !bytes.Equal(got, []byte("small")) {
		t.Fatalf("stash lost across sessions: %q %v", got, err)
	}
	ll2.End()
}

func TestStashGatedByProfile(t *testing.T) {
	m, _, _ := testMachine(t, 1) // Broadcom
	writeSLB(t, m, 0x10000, 100)
	parkAPs(t, m)
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	defer ll.End()
	id := palcrypto.SHA1Sum([]byte("x"))
	if err := m.StashWrite(id, []byte("y")); !errors.Is(err, ErrNoHWContext) {
		t.Errorf("stash write on 2008 hardware: %v", err)
	}
	if _, err := m.StashRead(id); !errors.Is(err, ErrNoHWContext) {
		t.Errorf("stash read on 2008 hardware: %v", err)
	}
}

func TestStashChargesContextCost(t *testing.T) {
	m, _, clock := futureMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	var ll LateLaunch
	if err := m.SKINITPartitioned(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	defer ll.End()
	id := palcrypto.SHA1Sum([]byte("id"))
	before := clock.Now()
	m.StashWrite(id, []byte("data"))
	m.StashRead(id)
	want := 2 * simtime.ProfileFuture().HWContextCost
	if got := clock.Now() - before; got != want {
		t.Errorf("stash ops charged %v, want %v", got, want)
	}
}
