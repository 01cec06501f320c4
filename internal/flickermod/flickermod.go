// Package flickermod simulates the paper's flicker-module: the untrusted
// Linux kernel module that exposes sysfs entries (slb, inputs, outputs,
// control), allocates kernel memory for the SLB, patches the skeleton
// GDT/TSS once slb_base is known, suspends the OS (CPU hotplug + INIT IPIs
// + kernel state save), and restores everything afterwards.
//
// The module is NOT in the TCB: "The flicker-module is not included in the
// TCB of the application, since its actions are verified" (Section 4.1). A
// buggy or malicious flicker-module can refuse service or corrupt the SLB,
// but corruption changes the measurement and is caught by attestation.
package flickermod

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"flicker/internal/hw/cpu"
	"flicker/internal/kernel"
	"flicker/internal/palcrypto"
	"flicker/internal/slb"
)

// Sysfs paths the module registers.
const (
	SysfsControl = "/sys/kernel/flicker/control"
	SysfsInputs  = "/sys/kernel/flicker/inputs"
	SysfsOutputs = "/sys/kernel/flicker/outputs"
	SysfsSLB     = "/sys/kernel/flicker/slb"
)

// Launcher runs a prepared Flicker session; the core package provides the
// implementation. It exists so the sysfs control path can trigger a launch
// without flickermod importing core.
type Launcher interface {
	// LaunchByMeasurement runs the session for a previously registered SLB
	// whose unpatched code hash matches key, with the given inputs. The PAL
	// outputs land on the output page, where the outputs entry reads them.
	LaunchByMeasurement(key [20]byte, inputs []byte) error
}

// Module is a loaded flicker-module instance.
type Module struct {
	K *kernel.Kernel
	M *cpu.Machine

	mu       sync.Mutex
	slbBase  uint32
	slbBytes []byte
	inputs   []byte
	launcher Launcher
	loaded   bool
	// inputScratch stages the length-prefixed input page so PlaceSLB does
	// not allocate a fresh page buffer per session.
	inputScratch [slb.PageSize]byte
	// saved is the kernel context SuspendOS and SaveContextOnly stash,
	// reused across sessions: the module runs one session at a time, and
	// the session's resume consumes the state before the next suspend.
	saved SavedState
}

// Load inserts the module into the kernel: it registers the four sysfs
// entries and is then ready to run sessions. Loading twice is an error,
// like insmod'ing a live module.
func Load(k *kernel.Kernel, m *cpu.Machine) (*Module, error) {
	mod := &Module{K: k, M: m}
	k.RegisterSysfs(SysfsSLB, &kernel.FuncNode{
		WriteFn: func(d []byte) error {
			mod.mu.Lock()
			defer mod.mu.Unlock()
			mod.slbBytes = append([]byte(nil), d...)
			return nil
		},
		ReadFn: func() ([]byte, error) {
			mod.mu.Lock()
			defer mod.mu.Unlock()
			return mod.slbBytes, nil
		},
	})
	k.RegisterSysfs(SysfsInputs, &kernel.FuncNode{
		WriteFn: func(d []byte) error {
			mod.mu.Lock()
			defer mod.mu.Unlock()
			mod.inputs = append([]byte(nil), d...)
			return nil
		},
	})
	k.RegisterSysfs(SysfsOutputs, &kernel.FuncNode{ReadFn: mod.readOutputs})
	k.RegisterSysfs(SysfsControl, &kernel.FuncNode{
		WriteFn: func(d []byte) error { return mod.control(d) },
	})
	mod.loaded = true
	return mod, nil
}

// SetLauncher wires the session runner used by the sysfs control path.
func (mod *Module) SetLauncher(l Launcher) {
	mod.mu.Lock()
	defer mod.mu.Unlock()
	mod.launcher = l
}

// control handles writes to the control entry; any write starts a session
// over the staged SLB and inputs.
func (mod *Module) control([]byte) error {
	mod.mu.Lock()
	launcher := mod.launcher
	slbBytes := mod.slbBytes
	inputs := mod.inputs
	mod.mu.Unlock()
	if launcher == nil {
		return errors.New("flickermod: no launcher wired")
	}
	if len(slbBytes) == 0 {
		return errors.New("flickermod: no SLB staged")
	}
	return launcher.LaunchByMeasurement(palcrypto.SHA1Sum(slbBytes), inputs)
}

// readOutputs serves the outputs entry from the output page in memory, as
// the OS reads it after a session: u32 big-endian length | bytes, a fresh
// copy for each read. The entry is empty before the first session, and a
// session zeroes the page when it places its SLB, so a session whose PAL
// fails leaves it empty.
func (mod *Module) readOutputs() ([]byte, error) {
	mod.mu.Lock()
	base := mod.slbBase
	mod.mu.Unlock()
	if base == 0 {
		return nil, nil
	}
	addr := base + uint32(slb.OutputsOffset)
	var hdr [4]byte
	if err := mod.M.Mem.ReadInto(addr, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > slb.PageSize-4 {
		return nil, errors.New("flickermod: corrupt output length")
	}
	return mod.M.Mem.Read(addr+4, int(n))
}

// AllocateSLB returns slb_base: the 64 KB-aligned kernel buffer for the SLB
// region and its parameter pages. The buffer is allocated once, when first
// needed, and reused for every subsequent session — the module "is only
// loaded once" (Figure 2), so slb_base is stable across sessions. A stable
// base is what lets a PAL seal data to its own measurement and unseal it in
// a later session: the measurement covers the patched GDT, which embeds
// slb_base.
func (mod *Module) AllocateSLB() (uint32, error) {
	mod.mu.Lock()
	defer mod.mu.Unlock()
	if mod.slbBase != 0 {
		return mod.slbBase, nil
	}
	base, err := mod.K.KAlloc(slb.RegionLen, slb.MaxLen)
	if err != nil {
		return 0, err
	}
	mod.slbBase = base
	return base, nil
}

// PlaceSLB patches an image for slbBase and writes it into kernel memory,
// along with the inputs at the well-known input page. All stores go through
// WriteIfChanged: re-staging the identical image leaves the region's write
// generation untouched. The image itself is staged by the machine
// (cpu.Machine.StageSLB), which notes the image's link-time measurement, so
// the next SKINIT does not re-hash what was just written, whichever PAL was
// staged before it.
func (mod *Module) PlaceSLB(im *slb.Image, slbBase uint32, inputs []byte) error {
	if len(inputs) > slb.PageSize-4 {
		return fmt.Errorf("flickermod: inputs of %d bytes exceed the 4 KB parameter page", len(inputs))
	}
	if err := im.Patch(slbBase); err != nil {
		return err
	}
	if err := mod.M.StageSLB(slbBase, im); err != nil {
		return err
	}
	// Additional PAL code lands above the parameter pages; the measured
	// SLB's preparatory code protects and measures it after SKINIT.
	if im.HasExtra() {
		if _, err := mod.M.Mem.WriteIfChanged(slbBase+uint32(slb.ExtraCodeOffset), im.Extra()); err != nil {
			return err
		}
	}
	// Inputs are length-prefixed in the input page.
	mod.mu.Lock()
	page := mod.inputScratch[:4+len(inputs)]
	binary.LittleEndian.PutUint32(page[0:4], uint32(len(inputs)))
	copy(page[4:], inputs)
	_, err := mod.M.Mem.WriteIfChanged(slbBase+uint32(slb.InputsOffset), page)
	mod.mu.Unlock()
	return err
}

// ReadInputs reads the length-prefixed inputs from the input page (what the
// SLB Core hands the PAL) into fresh memory.
func (mod *Module) ReadInputs(slbBase uint32) ([]byte, error) {
	return mod.ReadInputsInto(slbBase, nil)
}

// ReadInputsInto is ReadInputs reading into dst's storage, which is
// replaced by a fresh buffer only when it is too small: the session engine
// reads into its platform's session scratch.
func (mod *Module) ReadInputsInto(slbBase uint32, dst []byte) ([]byte, error) {
	var hdr [4]byte
	if err := mod.M.Mem.ReadInto(slbBase+uint32(slb.InputsOffset), hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > slb.PageSize-4 {
		return nil, errors.New("flickermod: corrupt input length")
	}
	if dst == nil || cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	if err := mod.M.Mem.ReadInto(slbBase+uint32(slb.InputsOffset)+4, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// SavedState is the kernel context stashed before SKINIT so the SLB Core
// can resume the OS: CR3 (the kernel page tables), the kernel GDT base, and
// which cores were hotplugged.
type SavedState struct {
	CR3          uint32
	GDTBase      uint32
	OfflinedAPs  []int
	SavedAt      uint32 // physical address of the saved-state page
	wasSuspended bool
}

// Suspended reports whether the state is still pending a ResumeOS — the
// session pipeline's teardown guard, so resume runs exactly once.
func (st *SavedState) Suspended() bool { return st.wasSuspended }

// SuspendOS prepares the machine for SKINIT: it hotplugs every AP offline,
// sends the INIT IPIs, and saves the BSP's kernel state into the
// saved-state page above the SLB (Section 4.2, "Suspend OS"). The returned
// state is the module's own, valid until the next suspend.
func (mod *Module) SuspendOS(slbBase uint32) (*SavedState, error) {
	st := mod.resetSaved(slbBase)
	for _, c := range mod.M.Cores()[1:] {
		if err := mod.K.OfflineCore(c.ID); err != nil {
			return nil, fmt.Errorf("flickermod: hotplug of core %d: %w", c.ID, err)
		}
		if err := mod.M.SendINITIPI(c.ID); err != nil {
			return nil, fmt.Errorf("flickermod: INIT IPI to core %d: %w", c.ID, err)
		}
		st.OfflinedAPs = append(st.OfflinedAPs, c.ID)
	}
	if err := mod.persistSaved(st); err != nil {
		return nil, err
	}
	return st, nil
}

// resetSaved readies the module's saved state for a new session, keeping
// the OfflinedAPs backing array.
func (mod *Module) resetSaved(slbBase uint32) *SavedState {
	st := &mod.saved
	*st = SavedState{
		CR3:         mod.M.BSP().CR3(),
		GDTBase:     mod.M.BSP().GDTBase(),
		OfflinedAPs: st.OfflinedAPs[:0],
		SavedAt:     slbBase + uint32(slb.SavedStateOffset),
	}
	return st
}

// persistSaved writes the state to the saved-state page (the SLB Core reads
// it during Resume OS), charges the context switch, and marks the OS
// suspended.
func (mod *Module) persistSaved(st *SavedState) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:4], st.CR3)
	binary.LittleEndian.PutUint32(buf[4:8], st.GDTBase)
	if err := mod.M.Mem.Write(st.SavedAt, buf[:]); err != nil {
		return err
	}
	mod.K.Clock().Advance(mod.K.Profile().ContextSwitch, "os.suspend")
	st.wasSuspended = true
	return nil
}

// ResumeOS completes the OS side of resume after the SLB Core has restored
// paging: it re-onlines the hotplugged cores and restarts scheduling.
func (mod *Module) ResumeOS(st *SavedState) error {
	if !st.wasSuspended {
		return errors.New("flickermod: resume without suspend")
	}
	for _, id := range st.OfflinedAPs {
		if err := mod.K.OnlineCore(id); err != nil {
			return fmt.Errorf("flickermod: re-onlining core %d: %w", id, err)
		}
	}
	mod.K.Clock().Advance(mod.K.Profile().ContextSwitch, "os.resume")
	st.wasSuspended = false
	return nil
}

// RestoreKernelContext performs the SLB Core's two-phase return to the
// kernel: reload flat segments, rebuild skeleton page tables (charged as
// PageTableReload), re-enable paging, restore CR3 and the kernel GDT.
func (mod *Module) RestoreKernelContext(core *cpu.Core, st *SavedState) {
	// Phase 1: segment descriptors covering all of memory via the call
	// gate in the SLB Core's GDT.
	core.SetSegments(0, uint32(mod.M.Mem.Size()-1))
	// Phase 2: skeleton page tables with a unity mapping, then paging on,
	// then the kernel's own tables.
	mod.K.Clock().Advance(mod.K.Profile().PageTableReload, "cpu.pagetables")
	core.SetPaging(true)
	core.SetCR3(st.CR3)
	core.SetGDTBase(st.GDTBase)
}

// SaveContextOnly saves the launching core's kernel context without
// suspending the other cores — the preparation step for a partitioned
// launch on next-generation hardware ([19]), where "untrusted legacy code
// [continues] to execute on other cores".
func (mod *Module) SaveContextOnly(slbBase uint32) (*SavedState, error) {
	st := mod.resetSaved(slbBase)
	if err := mod.persistSaved(st); err != nil {
		return nil, err
	}
	return st, nil
}
