// Package tpm simulates a v1.2 Trusted Platform Module at the command level:
// a PCR bank with static and dynamic (resettable) registers, locality-gated
// operations, sealed storage bound to PCR state, quotes signed by an AIK,
// OIAP/OSAP authorization sessions, non-volatile storage with PCR-based
// access control, monotonic counters, and a random number generator.
//
// Flicker's security argument rests on a handful of TPM properties, all
// enforced here exactly as the paper states them (Sections 2.1-2.3):
//
//   - PCRs 17-23 are dynamic: a reboot sets them to -1 (all 0xFF), and only
//     the locality-4 hardware sequence issued by SKINIT can reset PCR 17 to
//     zero without a reboot. Software cannot reset PCR 17.
//   - Seal binds data to future PCR contents; Unseal releases it only when
//     the named PCRs hold the named values.
//   - Quote signs the selected PCR values together with an external nonce
//     using the private AIK, which never leaves the TPM.
//
// The TPM charges all operation latencies to a simtime.Clock using a
// simtime.Profile, which is how the paper's tables are regenerated.
package tpm

import (
	"fmt"
	"sync"

	"flicker/internal/hw/tis"
	"flicker/internal/metrics"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
)

// Options configures a simulated TPM.
type Options struct {
	// KeyBits is the modulus size for the SRK and AIKs. Real v1.2 TPMs use
	// 2048; tests default to 512 to keep key generation fast (operation
	// latency is charged from the profile either way).
	KeyBits int
	// Seed makes the TPM's RNG (and hence its keys) deterministic.
	Seed []byte
	// OwnerAuth is the 20-byte owner authorization secret. Zero value means
	// all zeros.
	OwnerAuth Digest
}

// TPM is the simulated chip. All exported methods are safe for concurrent
// use; the TPM serializes commands like the real single-threaded part.
type TPM struct {
	mu      sync.Mutex
	clock   *simtime.Clock
	profile *simtime.Profile

	pcrs      [NumPCRs]Digest
	bootCount int

	srk       *palcrypto.RSAPrivateKey
	srkAuth   Digest // well-known (all zero) per TCG convention
	ownerAuth Digest
	tpmProof  Digest // secret binding sealed blobs to this TPM
	rng       *palcrypto.PRNG
	keyBits   int

	// Loaded keys by handle (AIKs). The SRK has the fixed handle KHSRK.
	keys       map[uint32]*loadedKey
	nextHandle uint32

	sessions    map[uint32]session
	nextSession uint32

	counters    map[uint32]*counter
	nextCounter uint32

	nv map[uint32]*nvSpace

	// In-progress locality-4 hash sequence (SKINIT SLB transfer). The
	// state is stored by value and reset per sequence so a warm session's
	// SKINIT does not allocate a fresh hash state.
	hashActive bool
	hash       palcrypto.SHA1

	// rbody is the response-body scratch handed out by respBuf, and rnd the
	// GetRandom payload scratch. Both are valid only under t.mu:
	// appendResponse copies the body into the caller's response buffer
	// before AppendResponse returns, so neither escapes a command.
	rbody buf
	rnd   []byte
	// scratch is the sealed-blob and wrapped-key envelope's working state,
	// also valid only under t.mu and scrubbed after every command.
	scratch envelopeScratch

	// needStartup is set by a platform reset: the TPM refuses every
	// command except TPM_Startup until the BIOS issues one (the v1.2
	// post-init discipline).
	needStartup bool

	// Per-command instrumentation (see Instrument). The vecs are always
	// non-nil — an uninstrumented TPM records into detached instruments.
	metCommands  *metrics.CounterVec   // ordinal, code
	metLatency   *metrics.HistogramVec // ordinal
	metMalformed *metrics.Counter
	events       *metrics.EventLog
	// Per-ordinal handles resolved once, so the dispatch hot path does not
	// re-join label keys on every command. okCounters holds the rc=0 series
	// (failures take the slow With path); latHists the latency series.
	// Guarded by t.mu like the rest of dispatch; reset by Instrument.
	okCounters map[uint32]*metrics.Counter
	latHists   map[uint32]*metrics.Histogram
	// traceTag, when set, carries the active session's distributed-trace
	// ID; dispatch pins it as the exemplar on the command-latency bucket
	// each command lands in. Nil-safe (a nil tag always reads "").
	traceTag *metrics.TraceTag
}

type loadedKey struct {
	priv      *palcrypto.RSAPrivateKey
	usageAuth Digest
	isAIK     bool
}

type counter struct {
	value uint32
	auth  Digest
}

type nvSpace struct {
	data      []byte
	pcrRead   PCRSelection
	digRead   Digest
	pcrWrite  PCRSelection
	digWrite  Digest
	hasPCRReq bool
}

// New creates a powered-on TPM. The returned TPM has already "booted": the
// static PCRs are zero and the dynamic PCRs hold -1.
func New(clock *simtime.Clock, profile *simtime.Profile, opts Options) (*TPM, error) {
	if opts.KeyBits == 0 {
		opts.KeyBits = 512
	}
	seed := opts.Seed
	if seed == nil {
		seed = []byte("flicker-sim-tpm-default-seed")
	}
	t := &TPM{
		clock:     clock,
		profile:   profile,
		ownerAuth: opts.OwnerAuth,
		rng:       palcrypto.NewPRNG(seed),
		keyBits:   opts.KeyBits,
		keys:      make(map[uint32]*loadedKey),
		sessions:  make(map[uint32]session),
		counters:  make(map[uint32]*counter),
		nv:        make(map[uint32]*nvSpace),
	}
	srk, err := palcrypto.GenerateRSAKey(t.rng, opts.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("tpm: SRK generation: %w", err)
	}
	t.srk = srk
	copy(t.tpmProof[:], t.rng.Bytes(DigestSize))
	t.nextHandle = 0x01000000
	t.nextSession = 0x02000000
	t.nextCounter = 1
	t.rebootLocked()
	t.needStartup = false // New() plays the BIOS's TPM_Startup(ST_CLEAR)
	t.Instrument(nil, nil)
	return t, nil
}

// Instrument points the TPM's per-command metrics at a registry and its
// security events at a log. Passing nil for either detaches that side (the
// construction default). The metric families are:
//
//	flicker_tpm_commands_total{ordinal,code}  — dispatches by result code
//	flicker_tpm_command_seconds{ordinal}      — simulated latency histogram
//	flicker_tpm_malformed_total               — unparseable request frames
func (t *TPM) Instrument(reg *metrics.Registry, events *metrics.EventLog) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metCommands = reg.Counter("flicker_tpm_commands_total",
		"TPM commands dispatched, by ordinal and result code.", "ordinal", "code")
	t.metLatency = reg.Histogram("flicker_tpm_command_seconds",
		"Simulated TPM command latency by ordinal.", nil, "ordinal")
	t.metMalformed = reg.Counter("flicker_tpm_malformed_total",
		"TPM request frames rejected before dispatch.").With()
	t.okCounters = make(map[uint32]*metrics.Counter)
	t.latHists = make(map[uint32]*metrics.Histogram)
	t.events = events
}

// SetTraceTag installs the trace tag dispatch reads for latency exemplars
// (the platform shares one tag between its pipeline and its TPM).
func (t *TPM) SetTraceTag(tag *metrics.TraceTag) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traceTag = tag
}

// respBuf returns the TPM's response-body scratch, reset for a new body.
// Valid only while t.mu is held, which every command handler is; the body is
// copied into the response frame before AppendResponse returns.
func (t *TPM) respBuf() *buf {
	t.rbody.b = t.rbody.b[:0]
	return &t.rbody
}

// rebootLocked resets volatile state as a platform reset does.
// Callers must hold t.mu or be in New.
func (t *TPM) rebootLocked() {
	for i := 0; i < NumPCRs; i++ {
		if i >= FirstDynamicPCR {
			// A reboot sets dynamic PCRs to -1 so a verifier can distinguish
			// a reboot from a dynamic reset (paper Section 2.3).
			for j := range t.pcrs[i] {
				t.pcrs[i][j] = 0xFF
			}
		} else {
			t.pcrs[i] = Digest{}
		}
	}
	t.sessions = make(map[uint32]session)
	t.keys = make(map[uint32]*loadedKey)
	t.hashActive = false
	t.bootCount++
	t.needStartup = true
}

// Reboot simulates a platform power cycle. NV storage, counters and the
// SRK survive; PCRs, sessions and the volatile key slots reset — the OS's
// TPM software stack must LoadKey2 its wrapped blobs again.
func (t *TPM) Reboot() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rebootLocked()
}

// BootCount returns the number of platform resets seen (1 after New).
func (t *TPM) BootCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bootCount
}

// PCRValue returns the current contents of a PCR. This is a debug/verifier
// backdoor equivalent to an unauthenticated PCRRead.
func (t *TPM) PCRValue(i int) Digest {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= NumPCRs {
		panic("tpm: PCR index out of range")
	}
	return t.pcrs[i]
}

// SRKPublic returns the SRK's public half (used by tests and by the storage
// layer to recognize this TPM's blobs).
func (t *TPM) SRKPublic() *palcrypto.RSAPublicKey {
	return &t.srk.RSAPublicKey
}

// charge advances the simulated clock.
func (t *TPM) charge(d simtime.Charge) {
	t.clock.Advance(d.Duration, d.Label)
}

func (t *TPM) extendLocked(idx int, m Digest) {
	t.pcrs[idx] = ExtendDigest(t.pcrs[idx], m)
}

// compositeLocked computes the composite hash of the current PCR values
// under sel.
func (t *TPM) compositeLocked(sel PCRSelection) Digest {
	return compositeHash(sel, &t.pcrs)
}

// HandleCommand processes one request frame and returns the response in a
// fresh buffer; it is AppendResponse with no caller buffer.
func (t *TPM) HandleCommand(loc tis.Locality, cmd []byte) []byte {
	return t.AppendResponse(nil, loc, cmd)
}

// AppendResponse implements tis.Handler: it parses a request frame,
// dispatches on the ordinal, and appends the response frame to dst.
// Malformed input never panics; it produces an error return code.
func (t *TPM) AppendResponse(dst []byte, loc tis.Locality, cmd []byte) []byte {
	// The real part is single-threaded: serialize the whole command, which
	// also makes the instrument pointers safe against Instrument.
	t.mu.Lock()
	defer t.mu.Unlock()
	tag, ord, body, err := parseFrame(cmd)
	if err != nil || (tag != tagRQUCommand && tag != tagRQUAuth1) {
		t.metMalformed.Inc()
		return appendResponse(dst, tagRSPCommand, RCBadParameter, nil)
	}
	rbody, rc := t.dispatch(loc, tag, ord, body)
	rtag := tagRSPCommand
	if tag == tagRQUAuth1 && rc == RCSuccess {
		rtag = tagRSPAuth1
	}
	return appendResponse(dst, rtag, rc, rbody)
}
