package core

import (
	"time"

	"flicker/internal/pal"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// SessionOptions configures one Flicker session.
type SessionOptions struct {
	// Input is delivered to the PAL via the well-known input page (max
	// one 4 KB page minus the length prefix).
	Input []byte
	// Nonce, if non-nil, is the remote verifier's freshness nonce; the SLB
	// Core extends it into PCR 17 along with the input/output measurements.
	Nonce *tpm.Digest
	// Sandbox links the OS Protection module: the PAL runs in ring 3 and
	// cannot touch memory outside its own region.
	Sandbox bool
	// HeapSize links the Memory Management module with a heap of this size.
	HeapSize int
	// TwoStage uses the Section 7.2 optimized SLB: SKINIT measures only a
	// 4736-byte stub, which then hashes the full SLB on the main CPU.
	TwoStage bool
	// MaxPALTime arms the SLB Core's execution timer (Section 5.1.2):
	// PAL operations fail with pal.ErrPALTimeout once the budget is spent,
	// and the session reports the timeout as the PAL's error. Zero
	// disables the timer.
	MaxPALTime time.Duration

	// FailPhase, if non-empty, injects ErrFaultInjected at the start of the
	// named phase — the test hook for exercising every teardown path of the
	// pipeline (the resume bugs the paper's §7.5 experiment exists to catch).
	FailPhase string
	// Injector, if non-nil, is called with each phase name before the phase
	// body runs; a non-nil return aborts the session with that error.
	Injector func(phase string) error

	// TraceID, if non-empty, is the distributed-trace ID (16 hex digits)
	// this session runs under. The pipeline pins it on the platform's trace
	// tag for the session's duration, so deep layers (TPM dispatch) attach
	// it as the exemplar on their latency histograms, and the metrics
	// bridge links phase histograms and abort events to it.
	TraceID string
	// Observer, if non-nil, observes this session only, in addition to the
	// platform-registered observers (trace.SessionObserver uses this to
	// grow a span tree under a caller-owned parent span).
	Observer Observer

	// image, when set (by the registry path), reuses a prebuilt image.
	image *slb.Image
}

// Phase is one step of the Figure 2 timeline with its simulated cost.
type Phase struct {
	Name     string
	Start    time.Duration
	Duration time.Duration
}

// SessionResult describes a completed Flicker session.
type SessionResult struct {
	// SessionID is the platform-unique id assigned to this session.
	SessionID uint64
	// Pipeline names the phase engine that ran it: "classic",
	// "classic-batch" or "partitioned".
	Pipeline string

	// Outputs is what the PAL wrote to the output page (nil on PAL error).
	Outputs []byte
	// PALError is the application-level failure, if any. The session
	// itself (cleanup, extend, resume) still completes.
	PALError error

	// Image is the launched SLB (patched).
	Image *slb.Image
	// SLBBase is where the flicker-module placed the SLB.
	SLBBase uint32
	// Measurement is H(P): the SKINIT-measured bytes' hash.
	Measurement tpm.Digest
	// PCR17AtLaunch is PCR 17 right after SKINIT (and, for two-stage
	// images, after the stub's window extend).
	PCR17AtLaunch tpm.Digest
	// PCR17Final is PCR 17 after the SLB Core's closing extends.
	PCR17Final tpm.Digest
	// InputDigest and OutputDigest are the parameter measurements the SLB
	// Core extended into PCR 17.
	InputDigest  tpm.Digest
	OutputDigest tpm.Digest
	// Nonce echoes the options nonce (nil if none).
	Nonce *tpm.Digest

	// Start and End are simulated timestamps; Phases is the timeline.
	Start, End time.Duration
	Phases     []Phase

	// output is the storage a PAL output that overlapped session scratch
	// is copied into before the scratch is erased (see palExecBody), so
	// Outputs may alias it. A session run into a reused result copies into
	// the same storage.
	output []byte
}

// maxPipelinePhases is the longest phase list a session pipeline declares
// (classic, classic-batch and partitioned each have eight). A session's
// timeline slots are allocated with its SessionResult; a batched session's
// per-request spans grow the timeline past them.
const maxPipelinePhases = 8

// sessionAlloc co-allocates a SessionResult with its timeline slots.
type sessionAlloc struct {
	res    SessionResult
	phases [maxPipelinePhases]Phase
}

// NewSessionResult returns an empty SessionResult whose Phases has room
// for a session's timeline, in one allocation: the fresh result RunSession
// passes to RunSessionInto.
func NewSessionResult() *SessionResult {
	a := &sessionAlloc{}
	a.res.Phases = a.phases[:0]
	return &a.res
}

// reset empties r for a new session of the given timeline length, keeping
// its timeline and output storage.
func (r *SessionResult) reset(phases int) {
	*r = SessionResult{Phases: grow(r.Phases[:0], phases), output: r.output[:0]}
}

// grow returns s with room for n more elements, in one allocation when it
// must grow: slices.Grow, whose append of a make is a second allocation
// under the race detector's instrumentation.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make(S, 0, len(s)+n), s...)
}

// Clear ends the caller's use of a reused result: the output storage,
// which the outputs may alias, is zeroed, and every other field is dropped.
// The storage is kept for the next session run into r.
func (r *SessionResult) Clear() {
	clear(r.output[:cap(r.output)])
	r.reset(0)
}

// Duration returns the session's total simulated time.
func (r *SessionResult) Duration() time.Duration { return r.End - r.Start }

// PhaseDuration returns the summed duration of the named phase.
func (r *SessionResult) PhaseDuration(name string) time.Duration {
	var d time.Duration
	for _, ph := range r.Phases {
		if ph.Name == name {
			d += ph.Duration
		}
	}
	return d
}

// RunSession executes one complete Flicker session for the PAL: the paper's
// Figure 2 timeline, expressed as the classic phase list over the shared
// pipeline engine (see pipeline.go). An error return means the
// infrastructure failed (bad SLB, SKINIT precondition, TPM failure) and the
// engine's guaranteed teardown ran; PAL-level failures land in
// SessionResult.PALError with the session still torn down cleanly. The
// result is fresh memory the caller owns, and so are its Outputs unless
// the PAL returned memory of its own (a package-level reply, say): an
// output in session scratch — the input read-back, an Unseal plaintext —
// is copied into the result before the scratch is erased.
func (p *Platform) RunSession(pl pal.PAL, opts SessionOptions) (*SessionResult, error) {
	return p.runFresh(&classicPipeline, pl, opts)
}

// RunSessionInto is RunSession filling res, a caller-supplied result whose
// storage (timeline and output copy) the session reuses. Everything res
// holds afterwards, Outputs included, stays valid until res is run into
// again or cleared; a caller that reuses res owns that lifetime. On error,
// res holds the aborted session's partial record.
func (p *Platform) RunSessionInto(res *SessionResult, pl pal.PAL, opts SessionOptions) error {
	return p.runPipeline(&classicPipeline, pl, opts, res)
}
