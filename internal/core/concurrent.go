package core

import (
	"flicker/internal/pal"
)

// RunSessionConcurrent executes a Flicker session on the BSP while the
// untrusted OS keeps running on the remaining cores. This is the multicore
// extension the paper recommends for next-generation hardware (Section 7.5
// / [19]): "Systems should support secure execution on a subset of CPU
// cores, while allowing untrusted legacy code to continue to execute on
// other cores. This will eliminate problems with interrupts being
// disabled."
//
// It requires a profile with MulticoreIsolation (ProfileFuture); on
// 2008-era profiles it returns cpu.ErrNoMulticoreIsolation. The security
// contract is unchanged — DEV over the SLB, PCR-17 reset and measurement,
// cleanup, cap extend — but the OS is never suspended: work scheduled on
// the other cores is retired concurrently with the session, and pending
// interrupts are delivered to them throughout.
//
// The session itself is the partitioned phase list over the shared
// pipeline engine (see pipeline.go), and is serialized against classic
// sessions: the flicker-module owns a single SLB buffer and the machine
// supports one late launch at a time, so a partitioned launch queues
// behind any in-flight session exactly as a concurrent ioctl would.
func (p *Platform) RunSessionConcurrent(pl pal.PAL, opts SessionOptions) (*SessionResult, error) {
	return p.runFresh(&partitionedPipeline, pl, opts)
}
