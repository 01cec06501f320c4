// Package kernel simulates the untrusted operating system of the paper's
// threat model: a Linux-like kernel with a measurable image (text segment,
// syscall table, loadable modules), a process scheduler with CPU hotplug,
// a sysfs through which the flicker-module exposes its interface, and block
// devices whose transfers interact with Flicker sessions.
//
// The kernel is explicitly OUTSIDE the TCB. Its adversarial surface
// (Compromise, InstallRootkit, arbitrary physical memory access) implements
// the paper's Section 3.1 attacker: ring-0 code that can invoke SKINIT with
// arguments of its choosing, monitor network traffic, and replay
// ciphertexts, but cannot defeat the CPU/TPM/chipset protections.
package kernel

import (
	"fmt"
	"sync"

	"flicker/internal/hw/cpu"
	"flicker/internal/hw/memory"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
)

// Memory layout constants for the simulated kernel image. Addresses are
// physical; the simulated kernel runs with a unity-mapped lowmem like a
// 32-bit Linux kernel.
const (
	// KernelTextBase is where the kernel's text segment is loaded.
	KernelTextBase = 0x00100000 // 1 MB, the classic Linux load address
	// KernelTextLen is the size of the simulated text segment. Sized so
	// that text + syscall table + modules come to ~1.8 MB, matching the
	// 22 ms hash cost in Table 1 under the calibrated CPU hash rate.
	KernelTextLen = 0x00180000 // 1.5 MB
	// SyscallTableBase holds NR_syscalls 4-byte handler pointers.
	SyscallTableBase = KernelTextBase + KernelTextLen
	// NumSyscalls is the number of entries in the syscall table.
	NumSyscalls = 320
	// ModuleArenaBase is where loadable modules are placed.
	ModuleArenaBase = SyscallTableBase + 4*NumSyscalls
	// HeapBase is the start of the kernel's general allocation arena
	// (kmalloc); the flicker-module's SLB buffer comes from here.
	HeapBase = 0x00400000 // 4 MB
)

// Module is a loaded kernel module occupying a memory range.
type Module struct {
	Name string
	Base uint32
	Len  int
}

// Kernel is the simulated untrusted OS.
type Kernel struct {
	M       *cpu.Machine
	clock   *simtime.Clock
	profile *simtime.Profile

	mu          sync.Mutex
	modules     []Module
	nextModBase uint32
	heapNext    uint32

	procs   map[int]*Process
	nextPID int
	offline map[int]bool // hotplugged-off cores

	sysfs map[string]SysfsNode

	compromised bool
	rootkits    []string

	devs map[string]*BlockDev
}

// Boot constructs a kernel on the machine, placing the kernel image in
// physical memory. The image bytes are deterministic in the seed so that
// known-good measurements are stable.
func Boot(m *cpu.Machine, clock *simtime.Clock, profile *simtime.Profile, seed string) (*Kernel, error) {
	k := &Kernel{
		M:           m,
		clock:       clock,
		profile:     profile,
		nextModBase: ModuleArenaBase,
		heapNext:    HeapBase,
		procs:       make(map[int]*Process),
		nextPID:     1,
		offline:     make(map[int]bool),
		sysfs:       make(map[string]SysfsNode),
		devs:        make(map[string]*BlockDev),
	}
	// Kernel text: pseudo-random but deterministic content, byte off being
	// byte off of the "kernel-text|"+seed stream. It is mapped rather than
	// written, so only the pages something touches are ever generated.
	text := *palcrypto.NewPRNG([]byte("kernel-text|" + seed))
	fill := func(off int, page *[memory.PageSize]byte) {
		g := text
		g.Seek(off)
		g.Read(page[:])
	}
	if err := m.Mem.Map(KernelTextBase, KernelTextLen, fill); err != nil {
		return nil, fmt.Errorf("kernel: mapping text: %w", err)
	}
	// Syscall table: each entry points somewhere inside the text segment.
	tbl := &tableBuilder{}
	prng := palcrypto.NewPRNG([]byte("syscall-table|" + seed))
	for i := 0; i < NumSyscalls; i++ {
		off := uint32(prng.Intn(KernelTextLen - 16))
		tbl.addr(KernelTextBase + off)
	}
	if err := m.Mem.Write(SyscallTableBase, tbl.b); err != nil {
		return nil, fmt.Errorf("kernel: writing syscall table: %w", err)
	}
	return k, nil
}

type tableBuilder struct{ b []byte }

func (t *tableBuilder) addr(a uint32) {
	t.b = append(t.b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
}

// Clock returns the platform clock (for workload accounting).
func (k *Kernel) Clock() *simtime.Clock { return k.clock }

// Profile returns the platform latency profile.
func (k *Kernel) Profile() *simtime.Profile { return k.profile }

// LoadModule loads a named module with deterministic contents of the given
// size and returns it.
func (k *Kernel) LoadModule(name string, size int) (Module, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	body := palcrypto.NewPRNG([]byte("module|" + name)).Bytes(size)
	base := (k.nextModBase + 4095) &^ 4095 // modules load page-aligned
	mod := Module{Name: name, Base: base, Len: size}
	if err := k.M.Mem.Write(mod.Base, body); err != nil {
		return Module{}, fmt.Errorf("kernel: loading module %s: %w", name, err)
	}
	k.nextModBase = base + uint32((size+4095)&^4095)
	k.modules = append(k.modules, mod)
	return mod, nil
}

// Modules returns the loaded module list.
func (k *Kernel) Modules() []Module {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Module, len(k.modules))
	copy(out, k.modules)
	return out
}

// KAlloc allocates kernel memory with the given alignment and returns its
// physical address. The flicker-module uses this for the SLB buffer
// ("slb_base").
func (k *Kernel) KAlloc(size int, align uint32) (uint32, error) {
	if size <= 0 {
		return 0, fmt.Errorf("kernel: kalloc of %d bytes", size)
	}
	if align == 0 {
		align = 16
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	base := (k.heapNext + align - 1) &^ (align - 1)
	if int(base)+size > k.M.Mem.Size() {
		return 0, fmt.Errorf("kernel: out of memory allocating %d bytes", size)
	}
	k.heapNext = base + uint32(size)
	return base, nil
}

// MeasurableRegions returns the regions a rootkit detector hashes: kernel
// text, the syscall table, and every loaded module (Section 6.1).
func (k *Kernel) MeasurableRegions() [][2]uint32 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := [][2]uint32{
		{KernelTextBase, KernelTextLen},
		{SyscallTableBase, 4 * NumSyscalls},
	}
	for _, m := range k.modules {
		out = append(out, [2]uint32{m.Base, uint32(m.Len)})
	}
	return out
}

// Compromise marks the kernel as attacker-controlled. It gates nothing in
// the simulation (the kernel is always untrusted); it exists so scenarios
// and traces can record when the adversary takes over.
func (k *Kernel) Compromise() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.compromised = true
}

// Compromised reports whether Compromise was called.
func (k *Kernel) Compromised() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.compromised
}

// InstallRootkit hooks syscall table entries the way kernel rootkits do:
// it overwrites entry slots to point at attacker code planted in the module
// arena. Every index is checked before anything changes, so a rejected call
// leaves memory, the table and Rootkits as they were.
func (k *Kernel) InstallRootkit(name string, entries []int) error {
	for _, e := range entries {
		if e < 0 || e >= NumSyscalls {
			return fmt.Errorf("kernel: syscall index %d out of range", e)
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	// Plant the malicious handler body.
	body := palcrypto.NewPRNG([]byte("rootkit|" + name)).Bytes(256)
	base := k.nextModBase
	if err := k.M.Mem.Write(base, body); err != nil {
		return err
	}
	k.compromised = true
	k.nextModBase += 4096
	for _, e := range entries {
		t := &tableBuilder{}
		t.addr(base)
		if err := k.M.Mem.Write(SyscallTableBase+uint32(4*e), t.b); err != nil {
			return err
		}
	}
	k.rootkits = append(k.rootkits, name)
	return nil
}

// PatchKernelText flips bytes inside the kernel text segment (an inline
// hook), another rootkit technique the detector must catch.
func (k *Kernel) PatchKernelText(offset uint32, patch []byte) error {
	if int(offset)+len(patch) > KernelTextLen {
		return fmt.Errorf("kernel: patch out of text segment")
	}
	k.mu.Lock()
	k.compromised = true
	k.mu.Unlock()
	return k.M.Mem.Write(KernelTextBase+offset, patch)
}

// Rootkits lists installed rootkits (ground truth for detector tests).
func (k *Kernel) Rootkits() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.rootkits...)
}
