// Package cpu simulates the processor side of an AMD SVM platform: a
// multi-core machine with privilege rings, segmentation and paging state,
// an interrupt controller capable of INIT inter-processor interrupts, and
// the SKINIT instruction with all of the preconditions and hardware effects
// the paper relies on (Section 2.4):
//
//   - SKINIT is privileged (ring 0) and valid only on the Boot Strap
//     Processor; all Application Processors must have accepted an INIT IPI.
//   - It programs the Device Exclusion Vector to block DMA to the SLB's
//     64 KB, disables interrupts, and disables debug access.
//   - It streams the SLB to the TPM at locality 4, resetting the dynamic
//     PCRs and extending the SLB measurement into PCR 17.
//   - It enters flat 32-bit protected mode with paging disabled and jumps
//     to the SLB entry point.
package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"flicker/internal/hw/memory"
	"flicker/internal/hw/tis"
	"flicker/internal/metrics"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// Ring is an x86 protection ring (0 most privileged, 3 least).
type Ring int

// CoreState tracks what a core is doing, at the granularity the SKINIT
// preconditions care about.
type CoreState int

// Core states.
const (
	CoreRunning    CoreState = iota // executing scheduled work
	CoreIdle                        // descheduled (CPU hotplug offline)
	CoreInitHalted                  // received INIT IPI; waiting for SIPI
)

// String renders the state for diagnostics.
func (s CoreState) String() string {
	switch s {
	case CoreRunning:
		return "running"
	case CoreIdle:
		return "idle"
	case CoreInitHalted:
		return "init-halted"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// Core is one logical processor.
type Core struct {
	ID    int
	IsBSP bool

	mu                sync.Mutex
	state             CoreState
	ring              Ring
	interruptsEnabled bool
	pagingEnabled     bool
	cr3               uint32 // page-table base register
	gdtBase           uint32
	segBase           uint32 // flattened CS/DS/SS base
	segLimit          uint32
}

// State returns the core's scheduling state.
func (c *Core) State() CoreState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Ring returns the core's current privilege ring.
func (c *Core) Ring() Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// SetRing moves the core to a privilege ring (used by the kernel for user
// processes and by the SLB Core's OS-protection module for ring-3 PALs).
func (c *Core) SetRing(r Ring) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring = r
}

// InterruptsEnabled reports the core's IF flag.
func (c *Core) InterruptsEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.interruptsEnabled
}

// SetInterrupts sets the core's IF flag (STI/CLI).
func (c *Core) SetInterrupts(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interruptsEnabled = on
}

// PagingEnabled reports whether paged memory mode is active.
func (c *Core) PagingEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pagingEnabled
}

// SetPaging toggles paged memory mode, as the SLB Core does when resuming
// the OS ("we re-enable paged memory mode" after reloading segments).
func (c *Core) SetPaging(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pagingEnabled = on
}

// CR3 returns the page-table base register.
func (c *Core) CR3() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cr3
}

// SetCR3 rewrites the page-table base register (restoring the kernel's page
// tables during Resume OS).
func (c *Core) SetCR3(v uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cr3 = v
}

// Segments returns the flattened segment base and limit.
func (c *Core) Segments() (base, limit uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.segBase, c.segLimit
}

// SetSegments loads the flattened CS/DS/SS descriptors. The SLB Core uses
// segments based at slb_base so position-dependent PAL code works; Resume
// OS reloads descriptors covering all of memory.
func (c *Core) SetSegments(base, limit uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.segBase, c.segLimit = base, limit
}

// GDTBase returns the loaded GDT physical base.
func (c *Core) GDTBase() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gdtBase
}

// SetGDTBase loads a new GDT.
func (c *Core) SetGDTBase(v uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gdtBase = v
}

// setState transitions the scheduling state.
func (c *Core) setState(s CoreState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = s
}

// Machine is the whole platform: cores, physical memory, the TPM bus, and
// the security-relevant global state SKINIT manipulates.
type Machine struct {
	Mem    *memory.PhysMem
	TPMBus *tis.Bus

	clock   *simtime.Clock
	profile *simtime.Profile

	mu            sync.Mutex
	cores         []*Core
	debugDisabled bool
	// active is the running launch's record, nil when none is: the machine
	// supports one late launch at a time.
	active      *LateLaunch
	pendingIRQs []int
	secureStash *SecureStash

	// measureCache memoizes SLB measurements by (base, length) and the
	// memory's write generation for that range: an unchanged staged image
	// re-measures in O(1) while any CPU write, patch or DMA store into the
	// window invalidates the entry. StageSLB fills it with the staged
	// image's link-time digest, and a launch that had to hash fills it with
	// what it hashed (see measureSLB).
	measureCache map[measureKey]measureEntry
	// l4 is the locality-4 sequence's frame scratch. Only measureSLB uses
	// it, after SKINIT has claimed active, so at most one launch holds it.
	l4 tpm.L4Scratch

	// Late-launch instrumentation (see Instrument); always non-nil,
	// detached until Instrument is called.
	metSKINIT *metrics.CounterVec // variant, result (ok handles cached below)
	// Hot-path series handles, resolved once in Instrument: every SKINIT
	// touches the measurement cache, and successful launches dominate.
	metSKINITOK    map[string]*metrics.Counter // by variant
	metMeasureHit  *metrics.Counter
	metMeasureMiss *metrics.Counter
	events         *metrics.EventLog
}

// measureKey identifies one staged SLB by location and declared length.
type measureKey struct {
	base uint32
	len  uint16
}

// measureEntry is a cached SLB digest, valid only while the write
// generation of the measured range still equals gen.
type measureEntry struct {
	gen    uint64
	digest tpm.Digest
}

// Config describes a machine to construct.
type Config struct {
	Cores   int // >= 1; core 0 is the BSP
	MemSize int // bytes of physical memory
}

// NewMachine builds a machine wired to the given TPM bus.
func NewMachine(clock *simtime.Clock, profile *simtime.Profile, bus *tis.Bus, cfg Config) (*Machine, error) {
	if cfg.Cores < 1 {
		return nil, errors.New("cpu: need at least one core")
	}
	if cfg.MemSize <= 0 {
		cfg.MemSize = 16 << 20
	}
	m := &Machine{
		Mem:     memory.New(cfg.MemSize),
		TPMBus:  bus,
		clock:   clock,
		profile: profile,
	}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &Core{
			ID:                i,
			IsBSP:             i == 0,
			state:             CoreRunning,
			ring:              0,
			interruptsEnabled: true,
			pagingEnabled:     true,
			segLimit:          uint32(cfg.MemSize - 1),
		})
	}
	m.Instrument(nil, nil)
	return m, nil
}

// Instrument points the machine's late-launch metrics at a registry and its
// precondition violations at an event log. The metric family is:
//
//	flicker_skinit_attempts_total{variant,result} — variant classic|partitioned;
//	result ok or the violated precondition (not-ring0, not-bsp, ap-not-init,
//	active, bad-slb, dev-fault, measure-fault, no-multicore).
func (m *Machine) Instrument(reg *metrics.Registry, events *metrics.EventLog) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metSKINIT = reg.Counter("flicker_skinit_attempts_total",
		"SKINIT attempts, by launch variant and outcome.", "variant", "result")
	m.metSKINITOK = map[string]*metrics.Counter{
		"classic":     m.metSKINIT.With("classic", "ok").Cell(),
		"partitioned": m.metSKINIT.With("partitioned", "ok").Cell(),
	}
	cache := reg.Counter("flicker_skinit_measure_cache_total",
		"SKINIT measurement cache lookups, by result (hit = unchanged image re-measured in O(1)).",
		"result")
	m.metMeasureHit = cache.With("hit").Cell()
	m.metMeasureMiss = cache.With("miss").Cell()
	m.events = events
}

// StageSLB writes a built SLB image at base, page by page through
// WriteIfChanged, and notes for the next SKINIT at base that the image's
// measured prefix now holds the bytes whose digest is im.Measurement(). The
// note is keyed by the prefix's write generation as it stands right after
// the write, sampled under the same memory lock, so it describes exactly the
// bytes the image put there; the digest is the image's own link-time
// digest, never one a caller supplies. Any later CPU write, zeroing, patch
// or DMA store into the prefix bumps the generation, and the launch then
// re-hashes what it finds. Bytes staged any other way (a raw Mem.Write)
// carry no note and are hashed at launch.
func (m *Machine) StageSLB(base uint32, im *slb.Image) error {
	n := im.MeasuredLen()
	gen, err := m.Mem.WriteIfChangedGen(base, im.Bytes(), n)
	if err != nil {
		return err
	}
	m.noteMeasurement(measureKey{base: base, len: uint16(n)}, gen, im.Measurement())
	return nil
}

// noteMeasurement records that the SLB at key hashes to digest while its
// write generation stays gen.
func (m *Machine) noteMeasurement(key measureKey, gen uint64, digest tpm.Digest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.measureCache == nil {
		m.measureCache = make(map[measureKey]measureEntry)
	}
	if len(m.measureCache) >= 64 {
		// The cache only ever holds a handful of staged regions; a
		// wholesale reset on overflow keeps it bounded without an LRU.
		clear(m.measureCache)
	}
	m.measureCache[key] = measureEntry{gen: gen, digest: digest}
}

// measureSLB runs the locality-4 measurement of the staged SLB, returning
// the SLB digest (what PCR 17 was extended with) and the resulting PCR 17
// value. It memoizes (base, length, write-generation) → digest: when the
// staged bytes are provably unchanged since StageSLB wrote them or since
// the last launch hashed them, the TPM is driven through the
// HASH_START/HASH_DIGEST fast path instead of re-hashing up to 60 KB, and a
// miss hashes the bytes where they sit, without copying them out. The cached
// and streamed paths are bit-identical in PCR 17 and in simulated time
// charged; any write, patch, or DMA store into the window bumps the range's
// generation and forces a full re-hash, so tampering is never masked. fault
// classifies an error for recordSKINIT ("bad-slb" or "measure-fault").
//
// Callers invoke this after DEVProtect, so DMA cannot move the bytes
// between the generation sample and the hash; a CPU-side race would bump
// the generation, which the re-sample before publishing the entry catches.
func (m *Machine) measureSLB(slbBase uint32, length uint16) (digest, pcr17 tpm.Digest, fault string, err error) {
	key := measureKey{base: slbBase, len: length}
	gen := m.Mem.Generation(slbBase, int(length))
	m.mu.Lock()
	ent, ok := m.measureCache[key]
	hit, miss := m.metMeasureHit, m.metMeasureMiss
	m.mu.Unlock()
	if ok && gen != 0 && ent.gen == gen {
		hit.Inc()
		pcr17, err = tpm.RunHashSequencePrecomputed(m.TPMBus, &m.l4, ent.digest, int(length))
		if err != nil {
			return tpm.Digest{}, tpm.Digest{}, "measure-fault", err
		}
		return ent.digest, pcr17, "", nil
	}
	miss.Inc()
	// The SLB is hashed where it sits, page by page under the memory's
	// read lock, so no write can land between two pieces of one digest.
	var h palcrypto.SHA1
	h.Reset()
	if err := m.Mem.Scan(slbBase, int(length), func(b []byte) { h.Write(b) }); err != nil {
		return tpm.Digest{}, tpm.Digest{}, "bad-slb", err
	}
	h.SumInto(&digest)
	// The digest is computed once on the launching CPU and handed to the
	// TPM with the byte count; the TPM charges the full per-byte transfer
	// cost, so Table 2's linear SKINIT latency is preserved exactly.
	pcr17, err = tpm.RunHashSequencePrecomputed(m.TPMBus, &m.l4, digest, int(length))
	if err != nil {
		return tpm.Digest{}, tpm.Digest{}, "measure-fault", err
	}
	if gen2 := m.Mem.Generation(slbBase, int(length)); gen2 != 0 && gen2 == gen {
		m.noteMeasurement(key, gen, digest)
	}
	return digest, pcr17, "", nil
}

// recordSKINIT folds one late-launch attempt into the instruments. The ok
// outcome (every healthy launch) uses the cached per-variant handle; fault
// outcomes are once-per-incident and may look their series up directly.
func (m *Machine) recordSKINIT(variant, result, detail string) {
	m.mu.Lock()
	met, ok, ev := m.metSKINIT, m.metSKINITOK[variant], m.events
	m.mu.Unlock()
	if result == "ok" && ok != nil {
		ok.Inc()
		return
	}
	//flickervet:allow metrichandle(fault outcomes fire at most once per failed launch)
	met.With(variant, result).Inc()
	if result != "ok" {
		ev.Record(metrics.EventSKINITFault, detail)
	}
}

// Cores returns the machine's cores; index 0 is the BSP.
func (m *Machine) Cores() []*Core { return m.cores }

// BSP returns the Boot Strap Processor.
func (m *Machine) BSP() *Core { return m.cores[0] }

// DebugDisabled reports whether hardware debug access is blocked (true
// while a late launch is active).
func (m *Machine) DebugDisabled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.debugDisabled
}

// SecureSessionActive reports whether a late launch is in progress.
func (m *Machine) SecureSessionActive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active != nil
}

// SendINITIPI delivers an INIT inter-processor interrupt to an AP. The AP
// must be idle (descheduled via CPU hotplug) — sending INIT to a core that
// is executing processes is the bug the paper's flicker-module avoids by
// using CPU hotplug first (Section 4.2, "Suspend OS").
func (m *Machine) SendINITIPI(coreID int) error {
	if coreID <= 0 || coreID >= len(m.cores) {
		return fmt.Errorf("cpu: INIT IPI to invalid core %d", coreID)
	}
	c := m.cores[coreID]
	switch c.State() {
	case CoreIdle:
		c.setState(CoreInitHalted)
		return nil
	case CoreInitHalted:
		return nil // already halted
	default:
		return fmt.Errorf("cpu: core %d is running; deschedule it before INIT", coreID)
	}
}

// StartupAP releases an AP from INIT back to the running state (the SIPI
// the OS sends after the Flicker session when it re-onlines the core).
func (m *Machine) StartupAP(coreID int) error {
	if coreID <= 0 || coreID >= len(m.cores) {
		return fmt.Errorf("cpu: SIPI to invalid core %d", coreID)
	}
	m.cores[coreID].setState(CoreRunning)
	return nil
}

// SetCoreIdle marks an AP as descheduled (CPU hotplug offline).
func (m *Machine) SetCoreIdle(coreID int, idle bool) error {
	if coreID <= 0 || coreID >= len(m.cores) {
		return fmt.Errorf("cpu: invalid core %d", coreID)
	}
	if idle {
		m.cores[coreID].setState(CoreIdle)
	} else {
		m.cores[coreID].setState(CoreRunning)
	}
	return nil
}

// PendInterrupt queues an external interrupt. If the BSP has interrupts
// disabled (during a Flicker session), the interrupt stays pending and is
// observed only after the OS resumes — this is the mechanism behind the
// paper's discussion of lost keyboard input and deferred I/O (Section 7.5).
func (m *Machine) PendInterrupt(irq int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pendingIRQs = append(m.pendingIRQs, irq)
}

// DrainInterrupts returns and clears pending interrupts if any running core
// can take them; it returns nil while every available core has interrupts
// disabled. During a classic Flicker session the BSP is masked and the APs
// are INIT-halted, so interrupts stay pending; during a partitioned launch
// (the [19] multicore extension) the other cores keep taking them.
func (m *Machine) DrainInterrupts() []int {
	deliverable := false
	for _, c := range m.cores {
		if c.State() == CoreRunning && c.InterruptsEnabled() {
			deliverable = true
			break
		}
	}
	if !deliverable {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.pendingIRQs
	m.pendingIRQs = nil
	return out
}

// PendingInterruptCount reports how many interrupts are queued.
func (m *Machine) PendingInterruptCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pendingIRQs)
}

// SLBMaxLen is the architectural limit on the Secure Loader Block: the
// first two 16-bit words (length, entry point) "must be between 0 and
// 64 KB".
const SLBMaxLen = 64 * 1024

// LateLaunch is the hardware context created by a successful SKINIT. The
// caller owns the record: SKINIT fills the one it is given, and the session
// layer keeps it until the SLB Core resumes the OS. The zero record is not
// active; a record is active from the SKINIT that fills it until End.
type LateLaunch struct {
	m       *Machine
	core    *Core
	savedIF bool

	// SLBBase is the physical address passed to SKINIT.
	SLBBase uint32
	// SLBLen and Entry are the header words read from the SLB.
	SLBLen uint16
	Entry  uint16
	// Measurement is the SHA-1 of the SLB contents, as extended into
	// PCR 17 by the TPM.
	Measurement tpm.Digest
	// PCR17 is the PCR 17 value after the measurement extend.
	PCR17 tpm.Digest
	// Partitioned marks a multicore-isolation launch (SKINITPartitioned):
	// only the launching core was isolated.
	Partitioned bool
}

// errLaunchEnded is End's and ExtendProtection's answer for a record that
// holds no active launch: ended, zeroed, or never filled.
var errLaunchEnded = errors.New("cpu: late launch already ended")

// SKINIT executes the late-launch instruction on the given core and fills
// ll, which must not hold an active launch, with the launch it starts.
func (m *Machine) SKINIT(coreID int, slbBase uint32, ll *LateLaunch) error {
	if coreID < 0 || coreID >= len(m.cores) {
		return fmt.Errorf("cpu: invalid core %d", coreID)
	}
	core := m.cores[coreID]

	// Precondition: privileged instruction.
	if core.Ring() != 0 {
		m.recordSKINIT("classic", "not-ring0", "cpu: SKINIT from ring != 0")
		return errors.New("cpu: SKINIT is privileged (#GP: not ring 0)")
	}
	// Precondition: BSP only.
	if !core.IsBSP {
		m.recordSKINIT("classic", "not-bsp", fmt.Sprintf("cpu: SKINIT on AP %d", core.ID))
		return errors.New("cpu: SKINIT can only be run on the BSP")
	}
	// Precondition: every AP has accepted an INIT IPI.
	for _, c := range m.cores[1:] {
		if c.State() != CoreInitHalted {
			m.recordSKINIT("classic", "ap-not-init",
				fmt.Sprintf("cpu: SKINIT with AP %d %s", c.ID, c.State()))
			return fmt.Errorf("cpu: AP %d not in INIT state (is %s); SKINIT handshake would fail",
				c.ID, c.State())
		}
	}
	return m.launch("classic", core, slbBase, ll)
}

// launch is the part of SKINIT that both variants share once the core's
// preconditions hold: the active-launch checks, the SLB header, the DEV,
// interrupts and debug access, the measurement and the mode switch. On
// success it fills ll; on failure ll is unchanged and nothing stays active.
func (m *Machine) launch(variant string, core *Core, slbBase uint32, ll *LateLaunch) error {
	if ll.Active() {
		m.recordSKINIT(variant, "active", "cpu: SKINIT into an active launch record")
		return errors.New("cpu: launch record still active")
	}
	m.mu.Lock()
	if m.active != nil {
		m.mu.Unlock()
		m.recordSKINIT(variant, "active", "cpu: SKINIT while a late launch is active")
		return errors.New("cpu: late launch already active")
	}
	m.mu.Unlock()

	// Read and validate the SLB header: length and entry point words.
	var hdr [4]byte
	if err := m.Mem.ReadInto(slbBase, hdr[:]); err != nil {
		m.recordSKINIT(variant, "bad-slb", "cpu: SLB header unreadable")
		return fmt.Errorf("cpu: SLB header: %w", err)
	}
	length := binary.LittleEndian.Uint16(hdr[0:2])
	entry := binary.LittleEndian.Uint16(hdr[2:4])
	if length == 0 {
		m.recordSKINIT(variant, "bad-slb", "cpu: SLB length is zero")
		return errors.New("cpu: SLB length is zero")
	}
	if entry >= length {
		m.recordSKINIT(variant, "bad-slb", "cpu: SLB entry point beyond length")
		return fmt.Errorf("cpu: SLB entry point %#x beyond length %#x", entry, length)
	}

	// Hardware protections: DEV over the full 64 KB window regardless of
	// the SLB's declared length ("SKINIT enables the Device Exclusion
	// Vector for the entire 64 KB of memory starting from the base of the
	// SLB, even if the SLB's length is less than 64 KB").
	if err := m.Mem.DEVProtect(slbBase, m.devWindow(slbBase)); err != nil {
		m.recordSKINIT(variant, "dev-fault", "cpu: DEV setup failed")
		return fmt.Errorf("cpu: DEV setup: %w", err)
	}

	// Only the launching core masks interrupts; for a partitioned launch
	// the other cores keep taking them.
	savedIF := core.InterruptsEnabled()
	core.SetInterrupts(false)
	m.mu.Lock()
	m.debugDisabled = true
	m.active = ll
	m.mu.Unlock()

	// CPU state change cost (mode switch, DEV programming): the sub-1ms
	// component of Table 2's zero-size row.
	m.clock.Advance(m.profile.CPUStateChange, "cpu.skinit")

	// Measure the SLB: only the declared length is transmitted (this is
	// what makes the Section 7.2 "SKINIT Optimization" possible). An
	// unchanged staged image hits the write-generation measurement cache.
	meas, pcr17, fault, err := m.measureSLB(slbBase, length)
	if err != nil {
		m.endLaunch(core, slbBase, savedIF)
		if fault == "bad-slb" {
			m.recordSKINIT(variant, "bad-slb", "cpu: SLB body unreadable")
			return fmt.Errorf("cpu: SLB read: %w", err)
		}
		m.recordSKINIT(variant, "measure-fault", "cpu: locality-4 SLB measurement failed")
		return fmt.Errorf("cpu: SLB measurement: %w", err)
	}

	// Enter flat 32-bit protected mode, paging disabled, at the entry point.
	core.SetPaging(false)
	core.SetSegments(slbBase, uint32(SLBMaxLen-1))

	m.recordSKINIT(variant, "ok", "")
	*ll = LateLaunch{
		m:           m,
		core:        core,
		savedIF:     savedIF,
		SLBBase:     slbBase,
		SLBLen:      length,
		Entry:       entry,
		Measurement: meas,
		PCR17:       pcr17,
		Partitioned: variant == "partitioned",
	}
	return nil
}

// devWindow returns the length of the DEV window SKINIT programs at
// slbBase: 64 KB, or less where physical memory ends first.
func (m *Machine) devWindow(slbBase uint32) int {
	return min(SLBMaxLen, m.Mem.Size()-int(slbBase))
}

// endLaunch drops a launch's hardware protections, on End or after a
// mid-flight SKINIT failure: the DEV window is cleared, the core's
// interrupt flag restored, debug access re-enabled, and no launch is
// active any more.
func (m *Machine) endLaunch(core *Core, slbBase uint32, savedIF bool) {
	m.Mem.DEVClear(slbBase, m.devWindow(slbBase))
	core.SetInterrupts(savedIF)
	m.mu.Lock()
	m.debugDisabled = false
	m.active = nil
	m.mu.Unlock()
}

// Active reports whether l holds the machine's running launch: filled by a
// successful SKINIT and not ended since.
func (l *LateLaunch) Active() bool {
	if l.m == nil {
		return false
	}
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	return l.m.active == l
}

// ExtendProtection adds DEV protection beyond the initial 64 KB, the
// mechanism the paper describes for PALs larger than the SLB window.
func (l *LateLaunch) ExtendProtection(addr uint32, n int) error {
	if !l.Active() {
		return errLaunchEnded
	}
	return l.m.Mem.DEVProtect(addr, n)
}

// End tears down the hardware protections: the SLB Core calls this as the
// final step of Resume OS, after secrets are erased. Interrupts return to
// their pre-SKINIT state and debug access is restored. End fails on a
// record that holds no active launch, and then changes nothing: a stale
// record cannot end a later launch.
func (l *LateLaunch) End() error {
	if !l.Active() {
		return errLaunchEnded
	}
	l.m.endLaunch(l.core, l.SLBBase, l.savedIF)
	return nil
}
