// Package core orchestrates Flicker sessions end to end: it owns the
// simulated platform (TPM, machine, untrusted kernel, flicker-module) and
// implements the Figure 2 timeline — accept SLB and inputs, initialize,
// suspend the OS, SKINIT, run the PAL under the SLB Core, clean up, extend
// PCR 17, resume the OS, and return the outputs.
package core

import (
	"fmt"
	"sync"

	"flicker/internal/flickermod"
	"flicker/internal/hw/cpu"
	"flicker/internal/hw/tis"
	"flicker/internal/kernel"
	"flicker/internal/metrics"
	"flicker/internal/pal"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// PlatformConfig describes a simulated Flicker platform.
type PlatformConfig struct {
	// Cores is the machine's core count (default 2, like the paper's
	// Athlon64 X2 test machine).
	Cores int
	// MemSize is the physical memory size (default 32 MB).
	MemSize int
	// Profile is the latency profile (default ProfileBroadcom).
	Profile *simtime.Profile
	// Seed makes the whole platform deterministic (default "flicker").
	Seed string
	// TPMKeyBits sets the TPM key size (default 512 for speed; latency is
	// simulated regardless).
	TPMKeyBits int
	// NoiseFraction, if > 0, adds deterministic latency jitter (e.g. 0.01).
	NoiseFraction float64
	// Metrics and Events, if non-nil, are used instead of freshly created
	// instances — the sharded session pool passes one shared pair so N
	// platforms fold into a single registry and event log (Registry
	// instruments are fetch-or-register, so shards share counters).
	Metrics *metrics.Registry
	Events  *metrics.EventLog
}

// Platform is a fully assembled simulated machine running the untrusted OS
// with the flicker-module loaded.
type Platform struct {
	Clock   *simtime.Clock
	Profile *simtime.Profile
	TPM     *tpm.TPM
	Bus     *tis.Bus
	Machine *cpu.Machine
	Kernel  *kernel.Kernel
	Mod     *flickermod.Module

	// Metrics is the platform-wide registry every simulated layer reports
	// into (TPM dispatch, TIS arbitration, DMA/DEV, SKINIT, sessions);
	// `flicker serve` exposes it. Events is the bounded security event log
	// (DEV violations, PCR-17 resets, locality faults, session aborts).
	Metrics *metrics.Registry
	Events  *metrics.EventLog

	// traceTag pins the active session's distributed-trace ID for the
	// layers below the pipeline (sessions are serialized, so one tag per
	// platform is exact).
	traceTag *metrics.TraceTag

	mu       sync.Mutex
	registry map[tpm.Digest]*registeredPAL
	seq      int

	// imageCache memoizes built SLB images by PAL identity and link
	// options, so repeated sessions for the same PAL do not relink the
	// image on the hot path. imageBuilds and imageHits are this platform's
	// cells of flicker_slb_image_cache_total.
	imageCache  map[imageKey]*slb.Image
	imageBuilds *metrics.Counter
	imageHits   *metrics.Counter

	// observability (see observer.go).
	observers  []Observer
	sessionSeq uint64

	// sessionMu serializes Flicker sessions — classic and partitioned
	// alike: the flicker-module owns a single SLB buffer and the machine
	// supports one late launch at a time, so concurrent callers queue here
	// exactly as concurrent ioctls against the real module would.
	sessionMu sync.Mutex

	// scratch is per-session state reused across runs, guarded by sessionMu
	// like the rest of the session path. It is what makes a warm session
	// (near-)zero-alloc: the session state, observer list, PAL environment,
	// locality-2 TPM drivers (with their response buffers), the input
	// read-back and the output-page framing buffer all persist across
	// sessions. The SessionResult is never part of it: the caller supplies
	// it and owns it (RunSessionInto), and RunSession hands out a fresh one.
	scratch struct {
		st        sessionState
		obs       []Observer
		env       pal.Env
		palClient *tpm.Client // PAL's locality-2 driver, reseeded per session
		slbClient *tpm.Client // SLB Core's locality-2 driver (unauth commands)
		seed      []byte      // per-session client nonce-seed scratch
		input     []byte      // input-page read-back, erased before the OS resumes
		page      []byte      // output-page framing scratch
		framed    framedPAL   // batched sessions' PAL: frame and request scratch
		chargeFn  func(simtime.Charge)
	}
}

type registeredPAL struct {
	p     pal.PAL
	image *slb.Image
	opts  SessionOptions
}

// imageKey identifies a built SLB image: the PAL's measured identity (name,
// code, extra code) plus the link options that change the image bytes.
type imageKey struct {
	name     string
	code     tpm.Digest
	extra    tpm.Digest
	hasExtra bool
	twoStage bool
}

// NewPlatform boots a platform: TPM, machine, kernel, flicker-module.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 2
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = 32 << 20
	}
	if cfg.Profile == nil {
		cfg.Profile = simtime.ProfileBroadcom()
	}
	if cfg.Seed == "" {
		cfg.Seed = "flicker"
	}
	var clock *simtime.Clock
	if cfg.NoiseFraction > 0 {
		clock = simtime.NewWithNoise(0xF11C4E2, cfg.NoiseFraction)
	} else {
		clock = simtime.New()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	events := cfg.Events
	if events == nil {
		// A platform-private log is stamped with this platform's simulated
		// clock; a shared log keeps whatever time source it was built with.
		events = metrics.NewEventLog(0).WithNow(clock.Now)
	}
	tp, err := tpm.New(clock, cfg.Profile, tpm.Options{
		Seed:    []byte("tpm|" + cfg.Seed),
		KeyBits: cfg.TPMKeyBits,
	})
	if err != nil {
		return nil, fmt.Errorf("core: TPM: %w", err)
	}
	tp.Instrument(reg, events)
	traceTag := metrics.NewTraceTag()
	tp.SetTraceTag(traceTag)
	bus := tis.NewBus(tp)
	bus.Instrument(reg, events)
	machine, err := cpu.NewMachine(clock, cfg.Profile, bus, cpu.Config{
		Cores:   cfg.Cores,
		MemSize: cfg.MemSize,
	})
	if err != nil {
		return nil, fmt.Errorf("core: machine: %w", err)
	}
	machine.Instrument(reg, events)
	machine.Mem.Instrument(reg, events)
	k, err := kernel.Boot(machine, clock, cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: kernel: %w", err)
	}
	mod, err := flickermod.Load(k, machine)
	if err != nil {
		return nil, fmt.Errorf("core: flicker-module: %w", err)
	}
	p := &Platform{
		Clock:      clock,
		Profile:    cfg.Profile,
		TPM:        tp,
		Bus:        bus,
		Machine:    machine,
		Kernel:     k,
		Mod:        mod,
		Metrics:    reg,
		Events:     events,
		traceTag:   traceTag,
		registry:   make(map[tpm.Digest]*registeredPAL),
		imageCache: make(map[imageKey]*slb.Image),
	}
	imageCache := reg.Counter("flicker_slb_image_cache_total",
		"SLB image cache lookups: build = the image was linked, hit = a cached link was reused.", "result")
	p.imageBuilds = imageCache.With("build").Cell()
	p.imageHits = imageCache.With("hit").Cell()
	p.scratch.palClient = tpm.NewClient(bus, tis.Locality2, []byte("pal-tpm"))
	p.scratch.slbClient = tpm.NewClient(bus, tis.Locality2, []byte("slbcore-extend"))
	p.AddObserver(newMetricsBridge(reg, events))
	mod.SetLauncher(p)
	return p, nil
}

// OSTPM returns a TPM driver at locality 0 — the untrusted OS's TSS stack
// (used by the tqd to generate quotes after a session).
func (p *Platform) OSTPM() *tpm.Client {
	p.mu.Lock()
	p.seq++
	seed := fmt.Sprintf("os-tpm-%d", p.seq)
	p.mu.Unlock()
	return tpm.NewClient(p.Bus, tis.Locality0, []byte(seed))
}

// BuildImage builds (and caches nothing) the SLB image for a PAL under the
// given options, so verifiers can compute expected measurements.
func BuildImage(pl pal.PAL, twoStage bool) (*slb.Image, error) {
	code := slb.PALCode{Name: pl.Name(), Code: pl.Code()}
	if lp, ok := pl.(pal.LargePAL); ok {
		code.Extra = lp.ExtraCode()
	}
	if twoStage {
		return slb.BuildTwoStage(code)
	}
	return slb.Build(code)
}

// imageFor returns the SLB image for a PAL, reusing a cached build when the
// PAL's identity and link options match a previous session. The image bytes
// are a pure function of (name, code, extra, twoStage), so a cache hit is
// measurement-identical to a fresh link.
func (p *Platform) imageFor(pl pal.PAL, twoStage bool) (*slb.Image, error) {
	key := imageKey{
		name:     pl.Name(),
		code:     palcrypto.SHA1Sum(pl.Code()),
		twoStage: twoStage,
	}
	if lp, ok := pl.(pal.LargePAL); ok {
		key.extra = palcrypto.SHA1Sum(lp.ExtraCode())
		key.hasExtra = true
	}
	p.mu.Lock()
	im, ok := p.imageCache[key]
	p.mu.Unlock()
	if ok {
		p.imageHits.Inc()
		return im, nil
	}
	im, err := BuildImage(pl, twoStage)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.imageCache[key] = im
	p.mu.Unlock()
	p.imageBuilds.Inc()
	return im, nil
}

// nextSessionID allocates a platform-unique session id.
func (p *Platform) nextSessionID() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sessionSeq++
	return p.sessionSeq
}

// nextSeq allocates a deterministic per-platform sequence number (TPM
// client seeds).
func (p *Platform) nextSeq() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	return p.seq
}

// RegisterPAL associates a PAL with its image bytes so the sysfs control
// path can find the behavior for a staged SLB. It returns the image.
func (p *Platform) RegisterPAL(pl pal.PAL, opts SessionOptions) (*slb.Image, error) {
	im, err := p.imageFor(pl, opts.TwoStage)
	if err != nil {
		return nil, err
	}
	opts.image = im
	p.mu.Lock()
	p.registry[im.WindowMeasurement()] = &registeredPAL{p: pl, image: im, opts: opts}
	p.mu.Unlock()
	return im, nil
}

// LaunchByMeasurement implements flickermod.Launcher: it runs a session for
// a registered SLB identified by the hash of its unpatched bytes. The
// registered prebuilt image is reused — the hot path never relinks. The
// outputs are on the output page when it returns.
func (p *Platform) LaunchByMeasurement(key [20]byte, inputs []byte) error {
	p.mu.Lock()
	reg, ok := p.registry[key]
	if !ok {
		// The staged bytes may be a registered image that was patched in
		// place after registration (slb_base is stable): match on the hash
		// of the image's current bytes, which the image keeps across Patch.
		for _, r := range p.registry {
			if r.image.WindowMeasurement() == key {
				reg, ok = r, true
				break
			}
		}
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no PAL registered for SLB hash %x", key[:8])
	}
	opts := reg.opts
	opts.Input = inputs
	res, err := p.RunSession(reg.p, opts)
	if err != nil {
		return err
	}
	if res.PALError != nil {
		return fmt.Errorf("core: PAL failed: %w", res.PALError)
	}
	return nil
}
