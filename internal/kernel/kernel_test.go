package kernel

import (
	"bytes"
	"testing"
	"time"

	"flicker/internal/hw/cpu"
	"flicker/internal/hw/tis"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

func bootKernel(t *testing.T, cores int) (*Kernel, *cpu.Machine, *simtime.Clock) {
	t.Helper()
	clock := simtime.New()
	prof := simtime.ProfileBroadcom()
	tp, err := tpm.New(clock, prof, tpm.Options{Seed: []byte("kernel-test")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.NewMachine(clock, prof, tis.NewBus(tp), Config{}.machineConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(m, clock, prof, "test")
	if err != nil {
		t.Fatal(err)
	}
	return k, m, clock
}

// Config is a test helper shim so the fixture reads clearly.
type Config struct{}

func (Config) machineConfig(cores int) cpu.Config {
	return cpu.Config{Cores: cores, MemSize: 32 << 20}
}

func TestBootWritesKernelImage(t *testing.T) {
	k, m, _ := bootKernel(t, 2)
	text, err := m.Mem.Read(KernelTextBase, 64)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(text, make([]byte, 64)) {
		t.Fatal("kernel text is all zero")
	}
	regions := k.MeasurableRegions()
	if len(regions) != 2 {
		t.Fatalf("fresh kernel has %d measurable regions, want 2", len(regions))
	}
}

func TestBootDeterministicImage(t *testing.T) {
	_, m1, _ := bootKernel(t, 1)
	_, m2, _ := bootKernel(t, 1)
	a, _ := m1.Mem.Read(KernelTextBase, KernelTextLen)
	b, _ := m2.Mem.Read(KernelTextBase, KernelTextLen)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different kernel images")
	}
}

func TestLoadModule(t *testing.T) {
	k, m, _ := bootKernel(t, 1)
	mod, err := k.LoadModule("ext3", 8192)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Base < ModuleArenaBase {
		t.Fatalf("module base %#x below arena", mod.Base)
	}
	body, _ := m.Mem.Read(mod.Base, 16)
	if bytes.Equal(body, make([]byte, 16)) {
		t.Fatal("module body empty")
	}
	if got := len(k.MeasurableRegions()); got != 3 {
		t.Fatalf("measurable regions = %d, want 3", got)
	}
	// Second module lands above the first, page aligned.
	mod2, _ := k.LoadModule("tpm_tis", 100)
	if mod2.Base <= mod.Base || mod2.Base%4096 != 0 {
		t.Fatalf("module2 base %#x", mod2.Base)
	}
}

func TestKAlloc(t *testing.T) {
	k, _, _ := bootKernel(t, 1)
	a, err := k.KAlloc(1000, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if a%65536 != 0 {
		t.Fatalf("allocation %#x not 64KB-aligned", a)
	}
	b, _ := k.KAlloc(1000, 65536)
	if b <= a {
		t.Fatal("allocations overlap")
	}
	if _, err := k.KAlloc(0, 16); err == nil {
		t.Fatal("zero-size kalloc accepted")
	}
	if _, err := k.KAlloc(1<<30, 16); err == nil {
		t.Fatal("oversized kalloc accepted")
	}
}

func TestRootkitChangesMeasurement(t *testing.T) {
	k, m, _ := bootKernel(t, 1)
	before, _ := m.Mem.Read(SyscallTableBase, 4*NumSyscalls)
	if err := k.InstallRootkit("adore-ng", []int{2, 4, 90}); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Mem.Read(SyscallTableBase, 4*NumSyscalls)
	if bytes.Equal(before, after) {
		t.Fatal("rootkit did not modify the syscall table")
	}
	if !k.Compromised() || len(k.Rootkits()) != 1 {
		t.Fatal("rootkit bookkeeping wrong")
	}
	if err := k.InstallRootkit("bad", []int{NumSyscalls}); err == nil {
		t.Fatal("out-of-range syscall index accepted")
	}
}

// A rejected InstallRootkit changes nothing: not the memory (no planted
// body, no hooked entry), not the module arena cursor, not the ground truth
// that Rootkits and Compromised report.
func TestInstallRootkitRejectsWithoutChange(t *testing.T) {
	k, m, _ := bootKernel(t, 1)
	snap := func() ([]byte, uint64) {
		b, err := m.Mem.Read(SyscallTableBase, HeapBase-SyscallTableBase)
		if err != nil {
			t.Fatal(err)
		}
		return b, m.Mem.Generation(0, HeapBase)
	}
	mem0, gen0 := snap()
	for _, entries := range [][]int{{3, NumSyscalls}, {-1, 3}, {NumSyscalls + 7}} {
		if err := k.InstallRootkit("bad", entries); err == nil {
			t.Fatalf("InstallRootkit(%v) accepted", entries)
		}
	}
	if mem, gen := snap(); !bytes.Equal(mem, mem0) || gen != gen0 {
		t.Fatal("rejected InstallRootkit changed memory")
	}
	if len(k.Rootkits()) != 0 || k.Compromised() {
		t.Fatalf("rejected InstallRootkit recorded rootkits %v, compromised %v", k.Rootkits(), k.Compromised())
	}
	// The arena cursor did not move: a good install lands where it would
	// on a fresh kernel.
	fresh, fm, _ := bootKernel(t, 1)
	for _, kk := range []*Kernel{k, fresh} {
		if err := kk.InstallRootkit("good", []int{3}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := m.Mem.Read(SyscallTableBase, HeapBase-SyscallTableBase)
	b, _ := fm.Mem.Read(SyscallTableBase, HeapBase-SyscallTableBase)
	if !bytes.Equal(a, b) {
		t.Fatal("install after a rejected call differs from one on a fresh kernel")
	}
}

func TestPatchKernelText(t *testing.T) {
	k, m, _ := bootKernel(t, 1)
	orig, _ := m.Mem.Read(KernelTextBase+0x500, 4)
	if err := k.PatchKernelText(0x500, []byte{0xE9, 0xDE, 0xAD, 0x00}); err != nil {
		t.Fatal(err)
	}
	now, _ := m.Mem.Read(KernelTextBase+0x500, 4)
	if bytes.Equal(orig, now) {
		t.Fatal("patch had no effect")
	}
	if err := k.PatchKernelText(KernelTextLen-1, []byte{1, 2}); err == nil {
		t.Fatal("out-of-range patch accepted")
	}
}

func TestSchedulerRunsWork(t *testing.T) {
	k, _, clock := bootKernel(t, 2)
	k.Spawn("make", 500*time.Millisecond)
	before := clock.Now()
	total := k.RunToCompletion()
	if total != 500*time.Millisecond {
		t.Fatalf("consumed %v, want 500ms", total)
	}
	if clock.Now()-before != total {
		t.Fatal("clock and consumed time disagree")
	}
	if len(k.Processes()) != 0 {
		t.Fatal("finished processes not reaped")
	}
}

func TestSchedulerParallelism(t *testing.T) {
	// Two processes on two cores finish in the time of one.
	k, _, clock := bootKernel(t, 2)
	k.Spawn("a", 100*time.Millisecond)
	k.Spawn("b", 100*time.Millisecond)
	before := clock.Now()
	k.RunToCompletion()
	if got := clock.Now() - before; got != 100*time.Millisecond {
		t.Fatalf("2 procs / 2 cores took %v, want 100ms", got)
	}
	// Two processes on one core take twice as long.
	k2, _, clock2 := bootKernel(t, 1)
	k2.Spawn("a", 100*time.Millisecond)
	k2.Spawn("b", 100*time.Millisecond)
	before = clock2.Now()
	k2.RunToCompletion()
	if got := clock2.Now() - before; got != 200*time.Millisecond {
		t.Fatalf("2 procs / 1 core took %v, want 200ms", got)
	}
}

func TestHotplugLifecycle(t *testing.T) {
	k, m, _ := bootKernel(t, 2)
	if k.OnlineCoreCount() != 2 {
		t.Fatalf("online = %d", k.OnlineCoreCount())
	}
	if err := k.OfflineCore(1); err != nil {
		t.Fatal(err)
	}
	if k.OnlineCoreCount() != 1 {
		t.Fatal("offline not reflected")
	}
	if m.Cores()[1].State() != cpu.CoreIdle {
		t.Fatal("core not idle after hotplug")
	}
	// Now the flicker-module can INIT it.
	if err := m.SendINITIPI(1); err != nil {
		t.Fatal(err)
	}
	if err := k.OnlineCore(1); err != nil {
		t.Fatal(err)
	}
	if m.Cores()[1].State() != cpu.CoreRunning || k.OnlineCoreCount() != 2 {
		t.Fatal("online not restored")
	}
	if err := k.OfflineCore(0); err == nil {
		t.Fatal("offlined the BSP")
	}
}

func TestSysfs(t *testing.T) {
	k, _, _ := bootKernel(t, 1)
	var stored []byte
	k.RegisterSysfs("/sys/kernel/flicker/slb", &FuncNode{
		ReadFn:  func() ([]byte, error) { return stored, nil },
		WriteFn: func(d []byte) error { stored = append([]byte(nil), d...); return nil },
	})
	if err := k.SysfsWrite("/sys/kernel/flicker/slb", []byte("pal")); err != nil {
		t.Fatal(err)
	}
	got, err := k.SysfsRead("/sys/kernel/flicker/slb")
	if err != nil || !bytes.Equal(got, []byte("pal")) {
		t.Fatalf("read %q %v", got, err)
	}
	if _, err := k.SysfsRead("/nonexistent"); err == nil {
		t.Fatal("read of missing path succeeded")
	}
	ro := &FuncNode{ReadFn: func() ([]byte, error) { return nil, nil }}
	k.RegisterSysfs("/ro", ro)
	if err := k.SysfsWrite("/ro", []byte("x")); err == nil {
		t.Fatal("write to read-only node succeeded")
	}
	k.UnregisterSysfs("/ro")
	if _, err := k.SysfsRead("/ro"); err == nil {
		t.Fatal("unregistered node still readable")
	}
}

func TestBlockCopyIntegrity(t *testing.T) {
	k, _, _ := bootKernel(t, 1)
	src := k.AttachBlockDev("cdrom", 1<<20, time.Nanosecond)
	dst := k.AttachBlockDev("usb", 1<<20, time.Nanosecond)
	payload := make([]byte, 300*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	src.Store(0, payload)
	cp, err := k.StartCopy(src, 0, dst, 0, len(payload), 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	for !cp.Done() {
		if _, err := cp.Pump(128 * 1024); err != nil {
			t.Fatal(err)
		}
	}
	wantSum, _ := src.Checksum(0, len(payload))
	gotSum, _ := dst.Checksum(0, len(payload))
	if wantSum != gotSum {
		t.Fatal("copy corrupted data")
	}
	if cp.IOErrors != 0 {
		t.Fatalf("IO errors = %d", cp.IOErrors)
	}
}

func TestBlockCopyDefersDuringSession(t *testing.T) {
	k, m, _ := bootKernel(t, 1)
	src := k.AttachBlockDev("hd", 1<<20, time.Nanosecond)
	dst := k.AttachBlockDev("usb", 1<<20, time.Nanosecond)
	src.Store(0, bytes.Repeat([]byte{0xAA}, 4096))
	cp, _ := k.StartCopy(src, 0, dst, 0, 4096, 4096)

	// Fake an active session by launching for real.
	slbBase, _ := k.KAlloc(cpu.SLBMaxLen, 65536)
	slb := make([]byte, 64)
	slb[0] = 64 // length
	slb[2] = 4  // entry
	m.Mem.Write(slbBase, slb)
	var ll cpu.LateLaunch
	if err := m.SKINIT(0, slbBase, &ll); err != nil {
		t.Fatal(err)
	}
	n, err := cp.Pump(4096)
	if err != nil || n != 0 {
		t.Fatalf("pump during session moved %d bytes (err %v)", n, err)
	}
	if cp.Deferred != 1 {
		t.Fatalf("Deferred = %d", cp.Deferred)
	}
	ll.End()
	if _, err := cp.Pump(4096); err != nil || !cp.Done() {
		t.Fatalf("pump after session: %v", err)
	}
	if cp.IOErrors != 0 {
		t.Fatal("well-behaved driver hit IO errors")
	}
}

func TestUnsafeDriverFaultsAgainstDEV(t *testing.T) {
	k, m, _ := bootKernel(t, 1)
	src := k.AttachBlockDev("hd", 1<<20, time.Nanosecond)
	dst := k.AttachBlockDev("usb", 1<<20, time.Nanosecond)
	src.Store(0, bytes.Repeat([]byte{0xBB}, 4096))

	// Allocate the SLB and put the copy's bounce buffer in the protected
	// 64 KB window right after it.
	slbBase, _ := k.KAlloc(cpu.SLBMaxLen, 65536)
	cpBad := &Copy{
		k: k, src: src, dst: dst,
		srcOff: 0, dstOff: 0, remaining: 4096,
		bounceAddr: slbBase + 8192, bounceLen: 4096,
	}
	slb := make([]byte, 64)
	slb[0] = 64
	slb[2] = 4
	m.Mem.Write(slbBase, slb)
	var ll cpu.LateLaunch
	if err := m.SKINIT(0, slbBase, &ll); err != nil {
		t.Fatal(err)
	}
	defer ll.End()
	if _, err := cpBad.PumpUnsafely(4096); err == nil {
		t.Fatal("DMA into protected window did not fault")
	}
	if cpBad.IOErrors == 0 {
		t.Fatal("IO error not recorded")
	}
}

func TestKernelAccessors(t *testing.T) {
	k, _, clock := bootKernel(t, 1)
	if k.Clock() != clock {
		t.Error("Clock accessor wrong")
	}
	if k.Profile() == nil {
		t.Error("Profile accessor nil")
	}
	k.LoadModule("snd", 1024)
	mods := k.Modules()
	if len(mods) != 1 || mods[0].Name != "snd" {
		t.Errorf("Modules = %+v", mods)
	}
	if k.Compromised() {
		t.Error("fresh kernel compromised")
	}
	k.Compromise()
	if !k.Compromised() {
		t.Error("Compromise not recorded")
	}
	if len(k.SysfsPaths()) != 0 {
		t.Error("fresh kernel has sysfs entries")
	}
	k.RegisterSysfs("/x", &FuncNode{})
	if got := k.SysfsPaths(); len(got) != 1 || got[0] != "/x" {
		t.Errorf("SysfsPaths = %v", got)
	}
	if _, ok := k.BlockDevice("none"); ok {
		t.Error("missing block device found")
	}
	b := k.AttachBlockDev("sda", 4096, time.Nanosecond)
	if got, ok := k.BlockDevice("sda"); !ok || got != b {
		t.Error("BlockDevice lookup failed")
	}
}

func TestAbsorbParallelWork(t *testing.T) {
	k, _, clock := bootKernel(t, 2)
	k.Spawn("a", 100*time.Millisecond)
	k.Spawn("b", 100*time.Millisecond)
	before := clock.Now()
	retired := k.AbsorbParallelWork(2, 100*time.Millisecond)
	if retired != 200*time.Millisecond {
		t.Fatalf("retired %v, want 200ms (2 cores x 100ms)", retired)
	}
	if clock.Now() != before {
		t.Fatal("AbsorbParallelWork advanced the clock")
	}
	if len(k.Processes()) != 0 {
		t.Fatal("work not retired")
	}
	// Degenerate inputs.
	if k.AbsorbParallelWork(0, time.Second) != 0 {
		t.Error("zero cores retired work")
	}
	if k.AbsorbParallelWork(2, 0) != 0 {
		t.Error("zero duration retired work")
	}
	// One core, one long process: bounded by d.
	k.Spawn("c", time.Second)
	if got := k.AbsorbParallelWork(1, 300*time.Millisecond); got != 300*time.Millisecond {
		t.Errorf("partial retire = %v", got)
	}
}

func TestCopyValidation(t *testing.T) {
	k, _, _ := bootKernel(t, 1)
	src := k.AttachBlockDev("a", 4096, time.Nanosecond)
	dst := k.AttachBlockDev("b", 4096, time.Nanosecond)
	// Default chunk size kicks in for chunk <= 0.
	cp, err := k.StartCopy(src, 0, dst, 0, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Pump(2048); err != nil || !cp.Done() {
		t.Fatalf("pump: %v", err)
	}
	// Out-of-range media access fails cleanly.
	if err := src.Store(4000, make([]byte, 200)); err == nil {
		t.Error("overflow store accepted")
	}
	if _, err := src.Media(4000, 200); err == nil {
		t.Error("overflow media read accepted")
	}
	if _, err := src.Checksum(-1, 10); err == nil {
		t.Error("negative checksum range accepted")
	}
	// PumpUnsafely on a finished copy is a no-op.
	if n, err := cp.PumpUnsafely(100); n != 0 || err != nil {
		t.Errorf("PumpUnsafely on done copy: %d %v", n, err)
	}
}

func TestPumpUnsafelyMovesDataOutsideSessions(t *testing.T) {
	k, _, _ := bootKernel(t, 1)
	src := k.AttachBlockDev("a", 1<<16, time.Nanosecond)
	dst := k.AttachBlockDev("b", 1<<16, time.Nanosecond)
	payload := bytes.Repeat([]byte{0xCD}, 8192)
	src.Store(0, payload)
	cp, err := k.StartCopy(src, 0, dst, 0, len(payload), 4096)
	if err != nil {
		t.Fatal(err)
	}
	for !cp.Done() {
		if _, err := cp.PumpUnsafely(4096); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := dst.Media(0, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("unsafe pump corrupted data")
	}
}
