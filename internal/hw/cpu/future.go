package cpu

import (
	"errors"
	"fmt"
	"sync"

	"flicker/internal/tpm"
)

// This file implements the next-generation hardware capabilities the paper
// recommends in its concurrent work [19] ("How low can you go?"). They are
// gated by the latency profile: 2008-era profiles reject them, so the base
// reproduction keeps exactly the paper's constraints, while ProfileFuture
// enables the extension experiments.

// ErrNoMulticoreIsolation is returned when partitioned launch is attempted
// on hardware without the capability.
var ErrNoMulticoreIsolation = errors.New("cpu: this hardware has no multicore secure-partition support")

// ErrNoHWContext is returned when the protected context store is absent.
var ErrNoHWContext = errors.New("cpu: this hardware has no protected PAL context store")

// SKINITPartitioned performs a late launch that isolates only the launching
// core, filling ll as SKINIT does: the other cores keep executing untrusted
// code, and interrupts stay enabled for them. The DEV still protects the
// SLB's 64 KB against DMA, and PCR 17 is reset and extended exactly as with
// SKINIT.
//
// Requires Profile.MulticoreIsolation (a [19] recommendation); on 2008-era
// profiles it fails and callers must use SKINIT with full OS suspension.
func (m *Machine) SKINITPartitioned(coreID int, slbBase uint32, ll *LateLaunch) error {
	if !m.profile.MulticoreIsolation {
		m.recordSKINIT("partitioned", "no-multicore", "cpu: partitioned launch without hardware support")
		return ErrNoMulticoreIsolation
	}
	if coreID < 0 || coreID >= len(m.cores) {
		return fmt.Errorf("cpu: invalid core %d", coreID)
	}
	core := m.cores[coreID]
	if core.Ring() != 0 {
		m.recordSKINIT("partitioned", "not-ring0", "cpu: SKINIT from ring != 0")
		return errors.New("cpu: SKINIT is privileged (#GP: not ring 0)")
	}
	return m.launch("partitioned", core, slbBase, ll)
}

// SecureStash is the hardware-protected PAL context store of [19]: a
// fixed-capacity on-chip memory, keyed by PAL identity (the PCR-17 launch
// value), readable and writable only while a late launch with that identity
// is active. It replaces the TPM Seal/Unseal round trip for checkpointing
// PAL state, eliminating "a major source of Flicker's overhead related to
// sealed storage".
type SecureStash struct {
	mu       sync.Mutex
	slots    map[tpm.Digest][]byte
	capacity int
	used     int
}

// StashCapacity is the simulated on-chip protected memory size.
const StashCapacity = 256 * 1024

func (m *Machine) stash() *SecureStash {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.secureStash == nil {
		m.secureStash = &SecureStash{slots: make(map[tpm.Digest][]byte), capacity: StashCapacity}
	}
	return m.secureStash
}

// StashWrite stores protected context for the PAL identified by identity.
// It fails unless the hardware supports context protection AND a late
// launch is currently active (software outside a session cannot reach the
// store).
func (m *Machine) StashWrite(identity tpm.Digest, data []byte) error {
	if !m.profile.HWContextProtection {
		return ErrNoHWContext
	}
	if !m.SecureSessionActive() {
		return errors.New("cpu: protected context store inaccessible outside a late launch")
	}
	s := m.stash()
	s.mu.Lock()
	defer s.mu.Unlock()
	old := len(s.slots[identity])
	if s.used-old+len(data) > s.capacity {
		return fmt.Errorf("cpu: protected context store full (%d/%d bytes)", s.used, s.capacity)
	}
	s.used += len(data) - old
	s.slots[identity] = append([]byte(nil), data...)
	m.clock.Advance(m.profile.HWContextCost, "hw.ctxstash")
	return nil
}

// StashRead retrieves protected context for identity under the same gates.
func (m *Machine) StashRead(identity tpm.Digest) ([]byte, error) {
	if !m.profile.HWContextProtection {
		return nil, ErrNoHWContext
	}
	if !m.SecureSessionActive() {
		return nil, errors.New("cpu: protected context store inaccessible outside a late launch")
	}
	s := m.stash()
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.slots[identity]
	if !ok {
		return nil, fmt.Errorf("cpu: no protected context for identity %x", identity[:8])
	}
	m.clock.Advance(m.profile.HWContextCost, "hw.ctxfetch")
	return append([]byte(nil), data...), nil
}
