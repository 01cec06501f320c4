package core

// The session pipeline engine. Both session variants — the paper's Figure 2
// timeline (RunSession) and the multicore partitioned launch
// (RunSessionConcurrent) — are declarative lists of phaseSpecs executed by
// runPipeline. A batched session (RunSessionBatch) is the classic list
// with a framed PAL (batch.go). The engine owns the invariants the
// hand-rolled monoliths used to duplicate per error path:
//
//   - teardown is guaranteed: a single deferred sweep runs every registered
//     phase teardown in LIFO order on every exit path, and each teardown is
//     guarded by session state so OS resume and LateLaunch.End happen
//     exactly once whether the session completes, aborts, or panics;
//   - on abort after the SLB was placed, secrets are erased while the
//     window is still isolated and PCR 17 is capped with the session
//     terminator, so a half-finished session can never attest as complete;
//   - observers see every session, phase, and clock charge;
//   - fault injection (SessionOptions.FailPhase / Injector) can abort at
//     any phase boundary, which is how the teardown matrix is tested.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"flicker/internal/flickermod"
	"flicker/internal/hw/cpu"
	"flicker/internal/hw/tis"
	"flicker/internal/pal"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// ErrFaultInjected is the error raised by SessionOptions.FailPhase.
var ErrFaultInjected = errors.New("core: injected fault")

// phaseSpec is one declarative step of a session timeline.
type phaseSpec struct {
	// name appears in SessionResult.Phases, observer callbacks, and trace
	// renderings.
	name string
	// body performs the phase against the session state.
	body func(*sessionState) error
	// teardown, if non-nil, is registered once body succeeds and undoes the
	// phase's platform-level effect (resume the OS, end the late launch,
	// erase the SLB window) if the session aborts later. Teardowns are
	// guarded by session state, so the orderly resume phases make them
	// no-ops on the success path.
	teardown func(*sessionState)
}

// sessionPipeline is a named phase list plus an optional post-session step.
type sessionPipeline struct {
	name     string
	phases   []phaseSpec
	epilogue func(*sessionState)
}

// sessionState threads the mutable session context through the phases.
type sessionState struct {
	sessionVars

	teardowns []func(*sessionState)

	// phaseMu guards curPhase, which the clock's charge hook reads to
	// attribute charges to the open phase.
	phaseMu  sync.Mutex
	curPhase string
}

// sessionVars is the part of sessionState that every session starts from
// zero; reset assigns it whole, and runLocked zeroes it again when the
// session ends, so no record of a finished session stays on the platform.
type sessionVars struct {
	p    *Platform
	pl   pal.PAL
	opts SessionOptions
	res  *SessionResult

	im      *slb.Image
	slbBase uint32
	saved   *flickermod.SavedState
	ll      cpu.LateLaunch // the session's launch record, filled by SKINIT
	env     *pal.Env
	palOut  []byte
	palErr  error

	// windowDirty marks that the SLB region holds a placed image/inputs
	// (and possibly PAL secrets); pcrOpen marks that PCR 17 holds an
	// uncapped launch measurement. Both are cleared by the orderly cleanup
	// and extend phases, or by the abort teardowns — whichever runs first.
	// aborted is set just before the teardown sweep when the session failed:
	// an aborted session blanket-zeroes the window even if the orderly
	// cleanup already scrubbed it. windowWiped makes that zero idempotent
	// across the launch and init-slb teardowns.
	windowDirty bool
	pcrOpen     bool
	aborted     bool
	windowWiped bool

	// obs is the observer list for this session, captured once by
	// runLocked; a framedPAL uses it to emit per-request spans.
	obs []Observer
}

func (st *sessionState) setPhase(name string) {
	st.phaseMu.Lock()
	st.curPhase = name
	st.phaseMu.Unlock()
}

func (st *sessionState) phase() string {
	st.phaseMu.Lock()
	defer st.phaseMu.Unlock()
	return st.curPhase
}

// runTeardowns runs every registered teardown in LIFO order. Teardowns are
// idempotent (state-guarded), so this is safe on every exit path.
func (st *sessionState) runTeardowns() {
	for i := len(st.teardowns) - 1; i >= 0; i-- {
		st.teardowns[i](st)
	}
	st.teardowns = st.teardowns[:0]
}

// reset reinitializes the scratch session state for a new session, keeping
// the teardown slice's backing storage and the phase mutex in place.
func (st *sessionState) reset(p *Platform, pl pal.PAL, opts SessionOptions) {
	st.sessionVars = sessionVars{p: p, pl: pl, opts: opts}
	st.teardowns = st.teardowns[:0]
	st.setPhase("")
}

// runPipeline executes a phase list for one session, filling res. This is
// the single implementation of the session timeline: RunSession and
// RunSessionConcurrent differ only in the phase lists they pass in.
func (p *Platform) runPipeline(pipe *sessionPipeline, pl pal.PAL, opts SessionOptions, res *SessionResult) error {
	// The flicker-module owns a single SLB buffer and the machine supports
	// one late launch at a time; all sessions — classic and partitioned —
	// queue here exactly as concurrent ioctls against the real module would.
	p.sessionMu.Lock()
	defer p.sessionMu.Unlock()
	res.reset(maxPipelinePhases)
	return p.runLocked(pipe, pl, opts, res)
}

// runFresh is runPipeline into the platform's scratch result, handing the
// caller a fresh copy it owns (SessionResult.fresh); on error it returns no
// result. The scratch copy of the outputs is zeroed before the next
// session can start.
func (p *Platform) runFresh(pipe *sessionPipeline, pl pal.PAL, opts SessionOptions) (*SessionResult, error) {
	p.sessionMu.Lock()
	defer p.sessionMu.Unlock()
	res := &p.scratch.res
	res.reset(maxPipelinePhases)
	if err := p.runLocked(pipe, pl, opts, res); err != nil {
		return nil, err
	}
	defer clear(res.Outputs)
	return res.fresh(), nil
}

// runLocked is runPipeline for a caller that holds sessionMu and supplies
// the reset SessionResult the session fills in. The session state is
// per-platform scratch reused across sessions; the result, with its
// timeline and output storage, belongs to the caller.
func (p *Platform) runLocked(pipe *sessionPipeline, pl pal.PAL, opts SessionOptions, res *SessionResult) error {
	st := &p.scratch.st
	st.reset(p, pl, opts)
	res.Start, res.Nonce, res.SessionID, res.Pipeline = p.Clock.Now(), opts.Nonce, p.nextSessionID(), pipe.name
	st.res = res
	obs := p.observersInto(p.scratch.obs)
	if opts.Observer != nil {
		obs = append(obs, opts.Observer)
	}
	p.scratch.obs = obs[:0]
	st.obs = obs
	if opts.TraceID != "" {
		// Pin the active trace on the platform tag so deep layers (TPM
		// dispatch) attach exemplars with exact attribution; sessions are
		// serialized under sessionMu, so one tag per platform suffices.
		p.traceTag.Set(opts.TraceID)
		defer p.traceTag.Clear()
	}
	for _, o := range obs {
		o.SessionStart(SessionMeta{
			ID:       st.res.SessionID,
			Pipeline: pipe.name,
			PAL:      pl.Name(),
			Start:    st.res.Start,
			TraceID:  opts.TraceID,
		})
	}
	if len(obs) > 0 {
		// The charge hook closes over the platform's session scratch, so
		// it is built once and reused by every session on this platform.
		if p.scratch.chargeFn == nil {
			p.scratch.chargeFn = func(c simtime.Charge) {
				phase := st.phase()
				for _, o := range st.obs {
					o.Charge(st.res.SessionID, phase, c)
				}
			}
		}
		p.Clock.SetOnCharge(p.scratch.chargeFn)
		defer p.Clock.SetOnCharge(nil)
	}

	var failure error
	defer func() {
		st.aborted = failure != nil
		st.runTeardowns()
		for _, o := range obs {
			o.SessionEnd(st.res.SessionID, p.Clock.Now(), failure)
		}
		st.sessionVars = sessionVars{}
	}()

	for i := range pipe.phases {
		if phErr := st.runPhase(&pipe.phases[i], obs); phErr != nil {
			failure = phErr
			return phErr
		}
	}

	st.res.Outputs, st.res.PALError = st.palOut, st.palErr
	st.res.End = p.Clock.Now()
	if pipe.epilogue != nil {
		pipe.epilogue(st)
	}
	return nil
}

// runPhase executes one phase: fault injection, body, timeline recording,
// observer callbacks, and teardown registration.
func (st *sessionState) runPhase(ph *phaseSpec, obs []Observer) error {
	start := st.p.Clock.Now()
	st.setPhase(ph.name)
	for _, o := range obs {
		o.PhaseStart(st.res.SessionID, ph.name, start)
	}
	var err error
	if st.opts.FailPhase == ph.name {
		err = fmt.Errorf("%w at phase %q", ErrFaultInjected, ph.name)
	} else if st.opts.Injector != nil {
		err = st.opts.Injector(ph.name)
	}
	if err == nil {
		err = ph.body(st)
	}
	end := st.p.Clock.Now()
	st.res.Phases = append(st.res.Phases, Phase{Name: ph.name, Start: start, Duration: end - start})
	for _, o := range obs {
		o.PhaseEnd(st.res.SessionID, ph.name, end, err)
	}
	st.setPhase("")
	if err != nil {
		return err
	}
	if ph.teardown != nil {
		st.teardowns = append(st.teardowns, ph.teardown)
	}
	return nil
}

// --- Shared phase bodies ----------------------------------------------------

// acceptBody resolves the SLB image through the platform's image cache and
// obtains slb_base.
func acceptBody(st *sessionState) error {
	pl := st.pl
	if f, ok := pl.(*framedPAL); ok {
		// A batch launches the wrapped PAL's image: the wrapper hides the
		// PAL's optional interfaces (pal.LargePAL).
		pl = f.PAL
	}
	var err error
	st.im, err = st.p.imageFor(pl, st.opts.TwoStage)
	if err != nil {
		return err
	}
	st.slbBase, err = st.p.Mod.AllocateSLB()
	if err != nil {
		return err
	}
	st.res.Image = st.im
	st.res.SLBBase = st.slbBase
	return nil
}

// initSLBBody zeroes the output page (a stale output page from a prior
// session must not be readable by this session's PAL) and places the
// patched image and inputs.
func initSLBBody(st *sessionState) error {
	if err := st.p.Machine.Mem.Zero(st.slbBase+uint32(slb.OutputsOffset), slb.PageSize); err != nil {
		return err
	}
	if err := st.p.Mod.PlaceSLB(st.im, st.slbBase, st.opts.Input); err != nil {
		return err
	}
	st.windowDirty = true
	return nil
}

// suspendOSBody hotplugs the APs, sends the INIT IPIs, and saves kernel
// state (classic pipeline only).
func suspendOSBody(st *sessionState) error {
	sv, err := st.p.Mod.SuspendOS(st.slbBase)
	if err != nil {
		return err
	}
	st.saved = sv
	return nil
}

// saveContextBody saves only the launching core's context — no hotplug, no
// INIT IPIs (partitioned pipeline).
func saveContextBody(st *sessionState) error {
	sv, err := st.p.Mod.SaveContextOnly(st.slbBase)
	if err != nil {
		return err
	}
	st.saved = sv
	return nil
}

// skinitBody runs the late launch; launched marks PCR 17 as holding an
// uncapped measurement until the extend phase completes.
func skinitBody(st *sessionState) error {
	if err := st.p.Machine.SKINIT(0, st.slbBase, &st.ll); err != nil {
		return err
	}
	st.launched()
	return nil
}

// skinitPartitionedBody is skinitBody for multicore-isolation hardware.
func skinitPartitionedBody(st *sessionState) error {
	if err := st.p.Machine.SKINITPartitioned(0, st.slbBase, &st.ll); err != nil {
		return err
	}
	st.launched()
	return nil
}

func (st *sessionState) launched() {
	st.pcrOpen = true
	st.res.Measurement = st.ll.Measurement
}

// palExecBody initializes the SLB Core environment (stage-2/extra-code
// measurement, TPM driver at locality 2), runs the PAL on the input page,
// and writes its outputs to the well-known output page. A batched session
// runs here too, as a framedPAL; its sessionAbort errors abort the session
// instead of becoming the PAL's error.
func palExecBody(st *sessionState) error {
	p := st.p
	// The PAL's locality-2 driver is cached on the platform and reseeded
	// with the same per-session identity a fresh client would get, so the
	// nonce stream is identical to pre-cache behavior.
	seed := append(p.scratch.seed[:0], "pal-tpm-"...)
	seed = strconv.AppendInt(seed, int64(p.nextSeq()), 10)
	p.scratch.seed = seed
	palTPM := p.scratch.palClient
	palTPM.Reseed(seed)

	// Two-stage measurement: the stub hashes the full window on the main
	// CPU and extends it into PCR 17 before the PAL runs.
	if st.im.TwoStage() {
		p.Clock.Advance(p.Profile.CPUHashCost(slb.MaxLen), "cpu.hash")
		if _, err := palTPM.Extend(17, st.im.WindowMeasurement()); err != nil {
			return fmt.Errorf("core: stage-2 extend: %w", err)
		}
	}
	// Additional PAL code above the 64 KB window: the preparatory code adds
	// it to the DEV and extends its measurement into PCR 17 before any of
	// it runs (Section 2.4).
	if st.im.HasExtra() {
		if err := st.ll.ExtendProtection(st.slbBase+uint32(slb.ExtraCodeOffset), len(st.im.Extra())); err != nil {
			return fmt.Errorf("core: extending DEV over extra PAL code: %w", err)
		}
		p.Clock.Advance(p.Profile.CPUHashCost(len(st.im.Extra())), "cpu.hash")
		if _, err := palTPM.Extend(17, st.im.ExtraMeasurement()); err != nil {
			return fmt.Errorf("core: extra-code extend: %w", err)
		}
	}
	identity := st.ll.PCR17
	if st.im.TwoStage() {
		identity = st.im.ExpectedPCR17TwoStage()
	}
	if st.im.HasExtra() {
		identity = tpm.ExtendDigest(identity, st.im.ExtraMeasurement())
	}
	env := &p.scratch.env
	err := env.Reinit(pal.EnvConfig{
		Clock:      p.Clock,
		Profile:    p.Profile,
		Mem:        p.Machine.Mem,
		Core:       p.Machine.BSP(),
		TPM:        palTPM,
		SLBBase:    st.slbBase,
		SLBLen:     st.im.Len(),
		Sandbox:    st.opts.Sandbox,
		Machine:    p.Machine,
		MaxPALTime: st.opts.MaxPALTime,
		Identity:   identity,
		ExtraLen:   len(st.im.Extra()),
	})
	if err != nil {
		return err
	}
	st.env = env
	// Read inputs back from the input page — the PAL sees what is in
	// memory, not what the application intended to write. The read-back
	// is session scratch, erased before the OS resumes.
	input, err := p.Mod.ReadInputsInto(st.slbBase, p.scratch.input)
	if err != nil {
		return err
	}
	p.scratch.input = input
	st.palOut, st.palErr = st.pl.Run(env, input)
	if a, ok := st.palErr.(sessionAbort); ok {
		env.ExitSandbox()
		return a.err
	}
	if st.palErr == nil && env.TimedOut() {
		// The SLB Core's timer fired during execution.
		st.palErr = pal.ErrPALTimeout
	}
	if st.palErr == nil && st.palOut == nil {
		st.palOut = env.Output()
	}
	env.ExitSandbox()
	// Outputs are written to the well-known page beyond the SLB.
	if st.palErr == nil {
		if err := st.writeOutputPage(st.palOut); err != nil {
			return err
		}
	}
	// What crossed is the OS's: it is copied into the result's own storage
	// before cleanup erases the session scratch it may lie in (the input
	// read-back, an Unseal plaintext), and extend-pcr hashes the copy. A
	// batch's output frame is built in its result's storage already. An
	// output that did not cross is not copied, and PCR 17 covers the empty
	// output in its place.
	_, framed := st.pl.(*framedPAL)
	switch {
	case st.palErr != nil:
		st.palOut = nil
	case st.palOut != nil && !framed:
		st.res.Outputs = append(st.res.Outputs[:0], st.palOut...)
		st.palOut = st.res.Outputs
	}
	if v, err := env.PCR17(); err == nil {
		st.res.PCR17AtLaunch = v
	}
	return nil
}

// writeOutputPage frames out with a 4-byte big-endian length prefix into the
// well-known output page. An oversized output is a PAL-level error (recorded
// in st.palErr); a memory fault is a session error.
func (st *sessionState) writeOutputPage(out []byte) error {
	if len(out) > slb.PageSize-4 {
		st.palErr = fmt.Errorf("core: PAL output of %d bytes exceeds the 4 KB output page", len(out))
		return nil
	}
	page := st.p.scratch.page
	if cap(page) < 4+len(out) {
		page = make([]byte, 4+len(out))
	}
	page = page[:4+len(out)]
	st.p.scratch.page = page
	page[0] = byte(len(out) >> 24)
	page[1] = byte(len(out) >> 16)
	page[2] = byte(len(out) >> 8)
	page[3] = byte(len(out))
	copy(page[4:], out)
	return st.p.Machine.Mem.Write(st.env.OutputAddr(), page)
}

// cleanupBody erases all PAL secrets from the SLB window while the launch
// protections are still in place. The erase is a scrub, not a blanket zero:
// the image region is restaged with the pristine patched image bytes and the
// rest of the window is zeroed, both through the compare-based memory ops.
// That leaves the window in a fixed public state — pristine measured image
// followed by zeros — so no PAL-written byte survives (a "secret" identical
// to the public image bytes is not a secret). The restage goes through
// StageSLB, so even a PAL that wrote into its own image leaves a window the
// next SKINIT need not re-hash. The abort path (zeroWindowTeardown) keeps
// the blanket zero: a failed session should not optimize for the next
// launch.
func cleanupBody(st *sessionState) error {
	st.p.scrubSessionScratch()
	// init-slb staged the whole image, so it ends at or below the window's
	// end; an image that fills the window leaves a zero-length tail.
	wipe := min(slb.MaxLen, st.p.Machine.Mem.Size()-int(st.slbBase))
	if err := st.p.Machine.StageSLB(st.slbBase, st.im); err != nil {
		return err
	}
	scrub := st.im.Len()
	if _, err := st.p.Machine.Mem.ZeroIfDirty(st.slbBase+uint32(scrub), wipe-scrub); err != nil {
		return err
	}
	// The extra-code region lies outside the 64 KB measured window, so
	// zeroing it cannot disturb the measurement cache; it stays blanket-
	// zeroed (the post-session contract is an empty, DMA-accessible region).
	if st.im.HasExtra() {
		if err := st.p.Machine.Mem.Zero(st.slbBase+uint32(slb.ExtraCodeOffset), len(st.im.Extra())); err != nil {
			return err
		}
		// The preparatory code's DEV extension is cleared here; End() only
		// covers the primary 64 KB window.
		if err := st.p.Machine.Mem.DEVClear(st.slbBase+uint32(slb.ExtraCodeOffset), len(st.im.Extra())); err != nil {
			return err
		}
	}
	st.windowDirty = false
	return nil
}

// extendPCRBody extends inputs, outputs, nonce, and the terminator into
// PCR 17, closing the session's attestation chain.
func extendPCRBody(st *sessionState) error {
	// The SLB Core's driver only issues unauthorized commands (Extend,
	// PCRRead), so the cached client needs no per-session reseed.
	palTPM := st.p.scratch.slbClient
	st.res.InputDigest = palcrypto.SHA1Sum(st.opts.Input)
	if _, err := palTPM.Extend(17, st.res.InputDigest); err != nil {
		return err
	}
	st.res.OutputDigest = palcrypto.SHA1Sum(st.palOut)
	if _, err := palTPM.Extend(17, st.res.OutputDigest); err != nil {
		return err
	}
	if st.opts.Nonce != nil {
		if _, err := palTPM.Extend(17, *st.opts.Nonce); err != nil {
			return err
		}
	}
	if _, err := palTPM.Extend(17, slb.SessionTerminator); err != nil {
		return err
	}
	v, err := palTPM.PCRRead(17)
	if err != nil {
		return err
	}
	st.res.PCR17Final = v
	st.pcrOpen = false
	return nil
}

// resumeOSBody is the classic pipeline's orderly teardown, performed as a
// measured phase: restore the kernel context, end the launch, resume the
// OS. It clears the guards, so the deferred teardown sweep is a no-op.
func resumeOSBody(st *sessionState) error {
	st.p.Mod.RestoreKernelContext(st.p.Machine.BSP(), st.saved)
	if err := st.ll.End(); err != nil {
		return err
	}
	return st.p.Mod.ResumeOS(st.saved)
}

// resumeCoreBody is the partitioned pipeline's orderly teardown: the OS was
// never suspended, so only the launching core's context comes back.
func resumeCoreBody(st *sessionState) error {
	st.p.Mod.RestoreKernelContext(st.p.Machine.BSP(), st.saved)
	return st.ll.End()
}

// scrubSessionScratch erases the platform scratch a session's secrets pass
// through: the PAL's TPM driver scratch (the last Seal plaintext, Unseal
// response and PRNG seed), the input read-back and the Env's unseal
// scratch. Cleanup and the abort teardown both run it.
func (p *Platform) scrubSessionScratch() {
	p.scratch.palClient.Scrub()
	clear(p.scratch.input[:cap(p.scratch.input)])
	p.scratch.env.ScrubScratch()
}

// --- Abort teardowns --------------------------------------------------------

// zeroWindowTeardown erases the SLB region (window, parameter pages, extra
// code) after an abort, so neither inputs nor PAL state survive a failed
// session. Registered by init-slb; also invoked from launchTeardown so the
// erase happens before the launch protections drop. On an abort it runs
// even when the orderly cleanup already scrubbed the window: a failed
// session leaves a fully zeroed region, not the pristine image the scrub
// restores for the next launch's cache hit.
func zeroWindowTeardown(st *sessionState) {
	if st.windowWiped || (!st.windowDirty && !st.aborted) {
		return
	}
	st.windowDirty = false
	st.windowWiped = true
	st.p.scrubSessionScratch()
	// The output of a session that did not complete never crosses.
	clear(st.res.Outputs)
	st.res.Outputs = nil
	st.p.Machine.Mem.Zero(st.slbBase, min(slb.ParamAreaLen, st.p.Machine.Mem.Size()-int(st.slbBase)))
	if st.im != nil && st.im.HasExtra() {
		st.p.Machine.Mem.Zero(st.slbBase+uint32(slb.ExtraCodeOffset), len(st.im.Extra()))
		st.p.Machine.Mem.DEVClear(st.slbBase+uint32(slb.ExtraCodeOffset), len(st.im.Extra()))
	}
}

// launchTeardown unwinds an open late launch after an abort: erase the
// window while it is still isolated, cap PCR 17 with the session terminator
// (an aborted session must never attest as complete), restore the kernel
// context, and end the launch. No-op once the orderly resume phase has run.
func launchTeardown(st *sessionState) {
	if !st.ll.Active() {
		return
	}
	zeroWindowTeardown(st)
	if st.pcrOpen {
		st.pcrOpen = false
		c := tpm.NewClient(st.p.Bus, tis.Locality2, []byte("slbcore-abort"))
		c.Extend(17, slb.SessionTerminator)
	}
	st.p.Mod.RestoreKernelContext(st.p.Machine.BSP(), st.saved)
	st.ll.End()
}

// resumeOSTeardown re-onlines the APs after an abort. No-op once ResumeOS
// has run (orderly or otherwise): SavedState tracks suspension.
func resumeOSTeardown(st *sessionState) {
	if st.saved == nil || !st.saved.Suspended() {
		return
	}
	st.p.Mod.ResumeOS(st.saved)
}

// --- Pipeline definitions ---------------------------------------------------

// classicPipeline is the paper's Figure 2 timeline.
var classicPipeline = sessionPipeline{
	name: "classic",
	phases: []phaseSpec{
		{name: "accept", body: acceptBody},
		{name: "init-slb", body: initSLBBody, teardown: zeroWindowTeardown},
		{name: "suspend-os", body: suspendOSBody, teardown: resumeOSTeardown},
		{name: "skinit", body: skinitBody, teardown: launchTeardown},
		{name: "pal-exec", body: palExecBody},
		{name: "cleanup", body: cleanupBody},
		{name: "extend-pcr", body: extendPCRBody},
		{name: "resume-os", body: resumeOSBody},
	},
}

// partitionedPipeline is the multicore variant ([19]): the OS keeps running
// on the other cores, so there is no suspend and no AP resume; the work the
// other cores retired during the session is absorbed afterwards.
var partitionedPipeline = sessionPipeline{
	name: "partitioned",
	phases: []phaseSpec{
		{name: "accept", body: acceptBody},
		{name: "init-slb", body: initSLBBody, teardown: zeroWindowTeardown},
		{name: "save-context", body: saveContextBody},
		{name: "skinit-partitioned", body: skinitPartitionedBody, teardown: launchTeardown},
		{name: "pal-exec", body: palExecBody},
		{name: "cleanup", body: cleanupBody},
		{name: "extend-pcr", body: extendPCRBody},
		{name: "resume-core", body: resumeCoreBody},
	},
	epilogue: func(st *sessionState) {
		// The other cores executed untrusted work for the whole session
		// duration: retire that work without advancing the clock again.
		otherCores := len(st.p.Machine.Cores()) - 1
		st.p.Kernel.AbsorbParallelWork(otherCores, st.res.Duration())
	},
}
