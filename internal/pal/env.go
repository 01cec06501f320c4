package pal

import (
	"errors"
	"fmt"
	"time"
	"unsafe"

	"flicker/internal/hw/cpu"
	"flicker/internal/hw/memory"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// Env is the execution environment a PAL sees inside a Flicker session. It
// exposes the machine through the same narrow interfaces the paper's PAL
// modules provide. The SLB Core constructs it; application code receives it
// in PAL.Run.
type Env struct {
	clock   *simtime.Clock
	profile *simtime.Profile
	mem     *memory.PhysMem
	core    *cpu.Core

	// TPM is the PAL's TPM driver, bound to locality 2.
	TPM *tpm.Client

	slbBase  uint32
	slbLen   int
	extraLen int

	// OS Protection state: when sandboxed, memory accesses are restricted
	// to [slbBase, slbBase+slb.ParamAreaLen) and the PAL runs in ring 3.
	sandboxed bool

	// Heap is nil unless the Memory Management module is linked.
	Heap *Heap

	rng     *palcrypto.PRNG
	outputs []byte
	// unseal is the session scratch Unseal returns plaintexts in, and
	// outgrown holds the buffers it replaced as it grew: the plaintexts
	// returned there stay valid until ScrubScratch erases them all.
	unseal   []byte
	outgrown [][]byte
	// seed receives the TPM GetRandom bytes that seed rng; it is zeroed
	// once rng has absorbed them.
	seed [128]byte

	// machine gives access to next-generation hardware features (the
	// protected context store); nil in minimal environments.
	machine *cpu.Machine
	// deadline is the absolute simulated time at which the SLB Core's
	// timer fires (zero = no limit). See Section 5.1.2: "We are also
	// investigating techniques to limit a PAL's execution time using timer
	// interrupts in the SLB Core."
	deadline time.Duration
	// identity is the hardware-latched PCR-17 launch value.
	identity tpm.Digest
}

// EnvConfig is what the SLB Core needs to build an Env.
type EnvConfig struct {
	Clock   *simtime.Clock
	Profile *simtime.Profile
	Mem     *memory.PhysMem
	Core    *cpu.Core
	TPM     *tpm.Client
	SLBBase uint32
	SLBLen  int
	// Sandbox enables the OS Protection module: ring-3 execution with
	// segment limits confining the PAL to its own memory region.
	Sandbox bool
	// HeapSize, if non-zero, links the Memory Management module with a
	// heap of that many bytes.
	HeapSize int
	// RNGSeed seeds the PAL-side PRNG. The paper's PALs seed theirs from
	// TPM GetRandom; NewEnv does the same when this is nil.
	RNGSeed []byte
	// Machine, if set, exposes next-generation hardware features (the
	// protected context store of [19]) to the PAL.
	Machine *cpu.Machine
	// MaxPALTime arms the SLB Core's execution timer: once the PAL has
	// consumed this much simulated time, its heavyweight operations fail
	// with ErrPALTimeout. Zero disables the timer. Budgets must leave room
	// for TPM operations ("a PAL may need some minimal amount of time to
	// allow TPM operations to complete").
	MaxPALTime time.Duration
	// Identity is the PAL's launch identity (PCR 17 after SKINIT), latched
	// by the hardware for the protected context store.
	Identity tpm.Digest
	// ExtraLen is the size of the additional-PAL-code region above the
	// parameter pages; the OS Protection sandbox includes it.
	ExtraLen int
}

// NewEnv prepares a PAL execution environment (the SLB Core's
// initialization phase).
func NewEnv(cfg EnvConfig) (*Env, error) {
	e := &Env{}
	if err := e.Reinit(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reinit re-prepares an Env in place for a new session, reusing the
// receiver's PRNG state and (shape-permitting) heap buffer. It is
// behaviorally identical to NewEnv — the session engine keeps one Env per
// platform so a warm session does not rebuild the environment on the heap.
func (e *Env) Reinit(cfg EnvConfig) error {
	if cfg.Clock == nil || cfg.Profile == nil || cfg.Mem == nil || cfg.TPM == nil {
		return errors.New("pal: incomplete environment config")
	}
	e.clock = cfg.Clock
	e.profile = cfg.Profile
	e.mem = cfg.Mem
	e.core = cfg.Core
	e.TPM = cfg.TPM
	e.slbBase = cfg.SLBBase
	e.slbLen = cfg.SLBLen
	e.extraLen = cfg.ExtraLen
	e.sandboxed = cfg.Sandbox
	e.outputs = nil
	e.deadline = 0
	e.ScrubScratch()
	if cfg.HeapSize > 0 {
		// NewHeap clamps tiny sizes; mirror it so a matching request
		// reuses the buffer it produced.
		n := cfg.HeapSize
		if n < hdrSize+minSplit {
			n = hdrSize + minSplit
		}
		if e.Heap != nil && len(e.Heap.buf) == n {
			e.Heap.setHdr(0, n-hdrSize, true)
		} else {
			e.Heap = NewHeap(cfg.HeapSize)
		}
	} else {
		e.Heap = nil
	}
	seed := cfg.RNGSeed
	if seed == nil {
		// "We also make one call to TPM GetRandom to obtain 128 bytes of
		// random data (it is used to seed a pseudorandom number
		// generator)" — Section 7.4.1.
		if err := cfg.TPM.GetRandomInto(e.seed[:]); err != nil {
			return fmt.Errorf("pal: seeding PRNG from TPM: %w", err)
		}
		seed = e.seed[:]
	}
	if e.rng == nil {
		e.rng = palcrypto.NewPRNG(seed)
	} else {
		e.rng.Reseed(seed)
	}
	clear(e.seed[:])
	e.machine = cfg.Machine
	e.identity = cfg.Identity
	if cfg.MaxPALTime > 0 {
		e.deadline = cfg.Clock.Now() + cfg.MaxPALTime
	}
	if cfg.Sandbox && cfg.Core != nil {
		// OS Protection: run the PAL in ring 3 behind segment limits.
		cfg.Core.SetRing(3)
		cfg.Core.SetSegments(cfg.SLBBase, uint32(slb.ParamAreaLen+cfg.ExtraLen-1))
	}
	return nil
}

// ExitSandbox returns the core to ring 0 (the SLB Core's call-gate path
// after the PAL exits).
func (e *Env) ExitSandbox() {
	if e.sandboxed && e.core != nil {
		e.core.SetRing(0)
	}
}

// Sandboxed reports whether the OS Protection module is active.
func (e *Env) Sandboxed() bool { return e.sandboxed }

// SLBBase returns the physical base address of the SLB.
func (e *Env) SLBBase() uint32 { return e.slbBase }

// errSegFault is returned for sandbox violations.
type SegFault struct {
	Addr uint32
	Len  int
}

// Error renders the fault like a #GP report.
func (s *SegFault) Error() string {
	return fmt.Sprintf("pal: #GP: access [%#x,+%d) outside PAL segment limits", s.Addr, s.Len)
}

// checkBounds enforces the OS Protection segment limits.
func (e *Env) checkBounds(addr uint32, n int) error {
	if !e.sandboxed {
		return nil
	}
	lo := e.slbBase
	hi := e.slbBase + uint32(slb.ParamAreaLen+e.extraLen)
	if addr < lo || uint32(int(addr)+n) > hi || int(addr)+n < int(addr) {
		return &SegFault{Addr: addr, Len: n}
	}
	return nil
}

// ReadMem reads physical memory. Without OS Protection a PAL "can access
// the machine's entire physical memory" (Section 4.2); with it, accesses
// outside the PAL's region fault.
func (e *Env) ReadMem(addr uint32, n int) ([]byte, error) {
	if err := e.checkBounds(addr, n); err != nil {
		return nil, err
	}
	return e.mem.Read(addr, n)
}

// WriteMem writes physical memory, subject to the same sandbox rules.
func (e *Env) WriteMem(addr uint32, data []byte) error {
	if err := e.checkBounds(addr, len(data)); err != nil {
		return err
	}
	return e.mem.Write(addr, data)
}

// ChargeCPU accounts simulated CPU time spent in application logic.
func (e *Env) ChargeCPU(d simtime.Charge) {
	e.clock.Advance(d.Duration, d.Label)
}

// Profile exposes the platform cost model so PALs charge realistic time
// for their heavyweight operations (RSA, hashing).
func (e *Env) Profile() *simtime.Profile { return e.profile }

// HashMem hashes n bytes of physical memory on the main CPU, charging the
// calibrated per-byte cost (this is the rootkit detector's workhorse).
func (e *Env) HashMem(addr uint32, n int) (tpm.Digest, error) {
	if err := e.checkTimer(); err != nil {
		return tpm.Digest{}, err
	}
	data, err := e.ReadMem(addr, n)
	if err != nil {
		return tpm.Digest{}, err
	}
	e.clock.Advance(e.profile.CPUHashCost(n), "cpu.hash")
	return palcrypto.SHA1Sum(data), nil
}

// HashBytes hashes a buffer on the main CPU with cost accounting.
func (e *Env) HashBytes(data []byte) tpm.Digest {
	e.clock.Advance(e.profile.CPUHashCost(len(data)), "cpu.hash")
	return palcrypto.SHA1Sum(data)
}

// Random returns n bytes from the PAL's PRNG (seeded from the TPM).
func (e *Env) Random(n int) []byte { return e.rng.Bytes(n) }

// RNG exposes the PAL PRNG for key generation.
func (e *Env) RNG() *palcrypto.PRNG { return e.rng }

// ExtendPCR17 extends a measurement into PCR 17 (TPM Utilities module).
func (e *Env) ExtendPCR17(m tpm.Digest) error {
	_, err := e.TPM.Extend(17, m)
	return err
}

// PCR17 reads the current PCR 17 value.
func (e *Env) PCR17() (tpm.Digest, error) {
	return e.TPM.PCRRead(17)
}

// SealToSelf seals data so that only this PAL — identified by the current
// PCR 17 value — can unseal it in a future Flicker session (Section 4.3.1).
func (e *Env) SealToSelf(data []byte) ([]byte, error) {
	return e.SealToPCR17(data, nil)
}

// SealToPCR17 seals data to a future session whose PCR 17 holds value v;
// v == nil means the current PCR 17 value (seal to self). Sealing to
// another PAL P' uses v = H(0x00^20 || H(P')).
func (e *Env) SealToPCR17(data []byte, v *tpm.Digest) ([]byte, error) {
	if err := e.checkTimer(); err != nil {
		return nil, err
	}
	var target tpm.Digest
	if v == nil {
		cur, err := e.PCR17()
		if err != nil {
			return nil, err
		}
		target = cur
	} else {
		target = *v
	}
	sel := tpm.SelectPCRs(17)
	dar := tpm.CompositeHash(sel, map[int]tpm.Digest{17: target})
	return e.TPM.Seal(tpm.Digest{}, sel, dar, data)
}

// Unseal opens a sealed blob; it fails unless this PAL's PCR state matches
// the blob's binding. The plaintext is returned in session scratch the Env
// owns, and is valid until the PAL returns: the SLB Core erases the scratch
// before the OS resumes. A later Unseal in the same session neither moves
// nor overwrites it, even when the scratch must grow. An output the PAL
// returns from it is copied out by the SLB Core; anything else the PAL
// keeps beyond the session it must copy itself.
func (e *Env) Unseal(blob []byte) ([]byte, error) {
	if err := e.checkTimer(); err != nil {
		return nil, err
	}
	buf, err := e.TPM.AppendUnseal(e.unseal, tpm.Digest{}, blob)
	if err != nil {
		return nil, err
	}
	if cap(buf) != cap(e.unseal) && cap(e.unseal) > 0 {
		// The append moved to a larger buffer; earlier plaintexts still
		// point into the old one, which the scrub must reach.
		e.outgrown = append(e.outgrown, e.unseal[:cap(e.unseal)])
	}
	start := len(e.unseal)
	e.unseal = buf
	return buf[start:len(buf):len(buf)], nil
}

// maxRetainedUnseal bounds the unseal scratch kept between sessions.
const maxRetainedUnseal = slb.PageSize

// ScrubScratch zeroes the session scratch Unseal returned plaintexts in,
// every buffer it outgrew included, and keeps at most maxRetainedUnseal
// bytes of it for the next session. The SLB Core runs it before the OS
// resumes.
func (e *Env) ScrubScratch() {
	clear(e.unseal[:cap(e.unseal)])
	for i, b := range e.outgrown {
		clear(b)
		e.outgrown[i] = nil
	}
	e.unseal, e.outgrown = e.unseal[:0], e.outgrown[:0]
	if cap(e.unseal) > maxRetainedUnseal {
		e.unseal = nil
	}
}

// ScratchOverlaps reports whether b shares memory with the session scratch
// Unseal returned plaintexts in, which ScrubScratch erases.
func (e *Env) ScratchOverlaps(b []byte) bool {
	if AnyOverlap(b, e.unseal[:cap(e.unseal)]) {
		return true
	}
	for _, o := range e.outgrown {
		if AnyOverlap(b, o) {
			return true
		}
	}
	return false
}

// AnyOverlap reports whether x and y share any memory, comparing their
// address ranges as crypto/internal/alias.AnyOverlap does.
func AnyOverlap(x, y []byte) bool {
	return len(x) > 0 && len(y) > 0 &&
		uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}

// SetOutput stages the PAL's output parameters; the SLB Core copies them to
// the well-known output page and extends their measurement into PCR 17.
func (e *Env) SetOutput(out []byte) {
	e.outputs = append([]byte(nil), out...)
}

// Output returns the staged output.
func (e *Env) Output() []byte { return e.outputs }

// ResetOutput clears any staged output. The batched request loop calls it
// at each request boundary so a request that stages nothing is observed as
// such — exactly what a singleton session's fresh Env would show — rather
// than inheriting the previous request's staged reply.
func (e *Env) ResetOutput() { e.outputs = nil }

// OutputAddr returns the physical address of the well-known output page
// ("the second 4-KB page above the 64-KB SLB").
func (e *Env) OutputAddr() uint32 { return e.slbBase + uint32(slb.OutputsOffset) }

// InputAddr returns the physical address of the input parameter page.
func (e *Env) InputAddr() uint32 { return e.slbBase + uint32(slb.InputsOffset) }

// ErrPALTimeout is returned by Env operations once the SLB Core's timer
// budget is exhausted; the session reports it as the PAL's failure.
var ErrPALTimeout = errors.New("pal: execution time budget exceeded (SLB Core timer fired)")

// checkTimer enforces the execution budget at Env operation boundaries
// (the simulation's granularity for the timer interrupt).
func (e *Env) checkTimer() error {
	if e.deadline > 0 && e.clock.Now() >= e.deadline {
		return ErrPALTimeout
	}
	return nil
}

// TimedOut reports whether the execution budget has been exhausted.
func (e *Env) TimedOut() bool {
	return e.deadline > 0 && e.clock.Now() >= e.deadline
}

// Identity returns the hardware-latched PAL identity (PCR 17 at launch).
func (e *Env) Identity() tpm.Digest { return e.identity }

// StashContext stores PAL state in the next-generation hardware's protected
// context store ([19]), keyed by this PAL's launch identity. On 2008-era
// profiles it fails with cpu.ErrNoHWContext; PALs fall back to sealed
// storage.
func (e *Env) StashContext(data []byte) error {
	if err := e.checkTimer(); err != nil {
		return err
	}
	if e.machine == nil {
		return cpu.ErrNoHWContext
	}
	return e.machine.StashWrite(e.identity, data)
}

// FetchContext retrieves PAL state from the protected context store.
func (e *Env) FetchContext() ([]byte, error) {
	if err := e.checkTimer(); err != nil {
		return nil, err
	}
	if e.machine == nil {
		return nil, cpu.ErrNoHWContext
	}
	return e.machine.StashRead(e.identity)
}

// HWContextAvailable reports whether the platform offers the protected
// context store.
func (e *Env) HWContextAvailable() bool {
	return e.machine != nil && e.profile.HWContextProtection
}

// ExtraCodeAddr returns the physical address of the additional-PAL-code
// region (meaningful only for large PALs).
func (e *Env) ExtraCodeAddr() uint32 { return e.slbBase + uint32(slb.ExtraCodeOffset) }
