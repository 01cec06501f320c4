// Package flicker is a Go reproduction of "Flicker: An Execution
// Infrastructure for TCB Minimization" (McCune, Parno, Perrig, Reiter,
// Isozaki — EuroSys 2008).
//
// Flicker executes security-sensitive code (a Piece of Application Logic,
// or PAL) in complete isolation from the OS, BIOS, devices and all other
// software, using AMD SVM's SKINIT late launch and a v1.2 TPM, while adding
// as few as 250 lines to the application's trusted computing base. This
// package and its internal subpackages implement the whole system as a
// deterministic platform simulation — the TPM, the SVM machine, the
// untrusted kernel, the flicker-module, the SLB layout, the PAL module
// library, attestation, and the paper's four applications — together with
// a calibrated latency model that regenerates every table and figure of
// the paper's evaluation.
//
// # Quick start
//
//	p, _ := flicker.NewPlatform(flicker.Config{})
//	hello := &flicker.PALFunc{
//		PALName: "hello",
//		Binary:  flicker.DescriptorCode("hello", "1.0", nil, nil),
//		Fn: func(env *flicker.Env, input []byte) ([]byte, error) {
//			return []byte("Hello, world"), nil
//		},
//	}
//	res, _ := p.RunSession(hello, flicker.SessionOptions{})
//	fmt.Println(string(res.Outputs))
//
// See the examples directory for attestation, sealed storage, and the
// rootkit-detector / distributed-computing / SSH / CA applications.
package flicker

import (
	"time"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/fabric"
	"flicker/internal/metrics"
	"flicker/internal/netsim"
	"flicker/internal/pal"
	"flicker/internal/palcrypto"
	"flicker/internal/pool"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
	"flicker/internal/trace"
)

// Platform is a fully assembled simulated Flicker machine: TPM, CPU,
// physical memory, untrusted kernel, and the flicker-module.
type Platform = core.Platform

// Config describes a platform to construct.
type Config = core.PlatformConfig

// NewPlatform boots a simulated platform.
func NewPlatform(cfg Config) (*Platform, error) { return core.NewPlatform(cfg) }

// PAL is a Piece of Application Logic: the unit of code Flicker isolates.
type PAL = pal.PAL

// PALFunc adapts a Go function to the PAL interface.
type PALFunc = pal.Func

// Env is the execution environment a PAL sees inside a session.
type Env = pal.Env

// SessionOptions configures one Flicker session (inputs, verifier nonce,
// OS-protection sandbox, heap, two-stage measurement).
type SessionOptions = core.SessionOptions

// SessionResult describes a completed session: outputs, measurements,
// PCR-17 values, and the Figure 2 timeline.
type SessionResult = core.SessionResult

// BatchPAL is a PAL that can serve several requests inside ONE session:
// one SKINIT measurement, one Unseal at entry (OpenBatch), N request
// executions, one Seal at exit (CloseBatch). A plain PAL batches too: the
// session engine runs it once per batched request.
type BatchPAL = pal.BatchPAL

// Batch is a group of requests executed in one session.
type Batch = core.Batch

// BatchResult is the outcome of a batched session: the underlying session
// result plus one reply per completed request and the PAL's trailer.
type BatchResult = core.BatchResult

// BatchReply is one request's isolated outcome within a batch.
type BatchReply = pal.BatchReply

// Observer receives structured session lifecycle events (session and phase
// boundaries, clock charges attributed to the open phase). Attach with
// Platform.AddObserver; NewSessionTraceObserver turns the stream into
// Tracer spans, the JSON that `flicker run -trace-json` prints.
type Observer = core.Observer

// SessionMeta identifies a session to observers.
type SessionMeta = core.SessionMeta

// MetricsRegistry is the platform-wide metrics registry (counters, gauges,
// latency histograms) every simulated layer reports into. Access it via
// Platform.Metrics; scrape with WritePrometheus or Snapshot.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time JSON-friendly view of a registry.
type MetricsSnapshot = metrics.Snapshot

// SecurityEventLog is the platform's bounded ring buffer of security-
// relevant events (DEV violations, PCR-17 resets, locality faults, session
// aborts). Access it via Platform.Events.
type SecurityEventLog = metrics.EventLog

// SecurityEvent is one entry in the security event log.
type SecurityEvent = metrics.Event

// ErrFaultInjected is returned by sessions aborted via
// SessionOptions.FailPhase fault injection.
var ErrFaultInjected = core.ErrFaultInjected

// Pool is a sharded session pool: N independent platforms behind one Run
// API with PAL-affinity routing, bounded queues with backpressure, and
// graceful drain on Close. All shards share one metrics registry and
// security event log.
type Pool = pool.Pool

// PoolConfig describes a session pool.
type PoolConfig = pool.Config

// NewPool boots a pool of cfg.Shards platforms.
func NewPool(cfg PoolConfig) (*Pool, error) { return pool.New(cfg) }

// ErrPoolClosed is returned by Pool.Run/TryRun after Close has begun.
var ErrPoolClosed = pool.ErrClosed

// ErrPoolSaturated is returned by Pool.TryRun when every shard queue is
// full.
var ErrPoolSaturated = pool.ErrSaturated

// DescriptorCode builds a deterministic PAL code identity from a name,
// version, module list, and embedded configuration.
func DescriptorCode(name, version string, modules []string, config []byte) []byte {
	return pal.DescriptorCode(name, version, modules, config)
}

// BuildImage builds the SLB image for a PAL (for computing expected
// measurements on the verifier side).
func BuildImage(p PAL, twoStage bool) (*SLBImage, error) { return core.BuildImage(p, twoStage) }

// SLBImage is a built Secure Loader Block.
type SLBImage = slb.Image

// Digest is a TPM measurement digest (SHA-1).
type Digest = tpm.Digest

// Profile is a hardware latency profile.
type Profile = simtime.Profile

// Latency profiles from the paper's evaluation.
var (
	// ProfileBroadcom models the HP dc5750 test machine with its Broadcom
	// BCM0102 TPM (the paper's primary numbers).
	ProfileBroadcom = simtime.ProfileBroadcom
	// ProfileInfineon models the faster Infineon TPM the paper cites.
	ProfileInfineon = simtime.ProfileInfineon
	// ProfileFuture models the hardware recommendations of the authors'
	// concurrent work ("up to six orders of magnitude" faster).
	ProfileFuture = simtime.ProfileFuture
)

// PrivacyCA certifies AIKs; remote verifiers trust its public key.
type PrivacyCA = attest.PrivacyCA

// NewPrivacyCA creates a Privacy CA (bits 0 = default key size).
func NewPrivacyCA(seed []byte, bits int) (*PrivacyCA, error) {
	return attest.NewPrivacyCA(seed, bits)
}

// QuoteDaemon is the tqd: the untrusted OS service that produces TPM quotes.
type QuoteDaemon = attest.Daemon

// NewQuoteDaemon generates and certifies an AIK for a platform and returns
// its quote daemon. Use Platform.OSTPM() for the client.
func NewQuoteDaemon(c *TPMClient, ownerAuth Digest, ca *PrivacyCA, platformID string) (*QuoteDaemon, error) {
	return attest.NewDaemon(c, ownerAuth, ca, platformID)
}

// TPMClient is a TPM driver bound to a locality.
type TPMClient = tpm.Client

// Attestation is a quote over PCR 17 plus the AIK certificate.
type Attestation = attest.Attestation

// VerifySession is the remote party's end-to-end check: it recomputes the
// expected final PCR-17 value for (image, input, output, nonce) and
// verifies the attestation against it.
func VerifySession(caPub *PublicKey, att *Attestation, nonce Digest, im *SLBImage, input, output []byte) error {
	return attest.VerifySession(caPub, att, nonce, im, input, output)
}

// ExpectedFinalPCR17 recomputes the PCR-17 value after a session.
func ExpectedFinalPCR17(im *SLBImage, input, output []byte, nonce *Digest) Digest {
	return attest.ExpectedFinalPCR17(im, input, output, nonce)
}

// PublicKey is an RSA public key from the PAL crypto library.
type PublicKey = palcrypto.RSAPublicKey

// PrivateKey is an RSA private key from the PAL crypto library.
type PrivateKey = palcrypto.RSAPrivateKey

// SHA1Sum computes a SHA-1 digest with the PAL crypto library.
func SHA1Sum(data []byte) Digest { return palcrypto.SHA1Sum(data) }

// ModuleInventory reproduces Figure 6: the PAL module library with its
// lines-of-code and size accounting.
func ModuleInventory() []pal.ModuleInfo { return pal.ModuleInventory() }

// TCBSize sums the TCB lines of code for a set of linked PAL modules.
func TCBSize(modules []string) (loc int, sizeKB float64, err error) {
	return pal.TCBSize(modules)
}

// --- attestation fabric ----------------------------------------------------

// NetSwitch is a simulated multi-endpoint network segment on its own
// deterministic clock: the medium a fabric controller and its host agents
// exchange framed RPC over.
type NetSwitch = netsim.Switch

// NewNetSwitch creates a switch with a uniform port-to-port RTT and
// optional per-byte serialization cost, on a fresh simulated clock.
func NewNetSwitch(rtt, perByte time.Duration) *NetSwitch {
	return netsim.NewSwitch(simtime.New(), rtt, perByte)
}

// FabricController admits host agents into a serving fleet via
// quote-verified attestation (a host joins only after a TPM Quote over the
// admission PAL's PCR-17 value verifies against the controller's own build
// of that PAL) and schedules sessions across the admitted members with
// PAL-affinity routing, failover, drain, and periodic re-attestation.
type FabricController = fabric.Controller

// FabricControllerConfig configures a fabric controller.
type FabricControllerConfig = fabric.ControllerConfig

// NewFabricController attaches a controller to a switch with the given
// Privacy CA as the attestation trust root.
func NewFabricController(sw *NetSwitch, ca *PrivacyCA, cfg FabricControllerConfig) (*FabricController, error) {
	return fabric.NewController(sw, ca, cfg)
}

// FabricHost is one fabric member: a platform pool plus a quote daemon,
// serving sessions over its switch port once admitted.
type FabricHost = fabric.Host

// FabricHostConfig configures a fabric host agent.
type FabricHostConfig = fabric.HostConfig

// NewFabricHost attaches a host agent to a switch.
func NewFabricHost(sw *NetSwitch, ca *PrivacyCA, cfg FabricHostConfig) (*FabricHost, error) {
	return fabric.NewHost(sw, ca, cfg)
}

// FabricHostStatus is one member's externally visible admission state.
type FabricHostStatus = fabric.HostStatus

// ErrFabricNoHosts is returned by FabricController.Run when no admitted
// host can serve the requested PAL.
var ErrFabricNoHosts = fabric.ErrNoHosts

// NewMetricsRegistry creates an empty metrics registry, for wiring several
// components (fabric hosts, switches, controllers) into one scrape surface.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewSecurityEventLog creates a bounded security event log (n <= 0 uses
// the default capacity).
func NewSecurityEventLog(n int) *SecurityEventLog { return metrics.NewEventLog(n) }

// --- distributed tracing ---------------------------------------------------

// Tracer mints deterministic trace/span IDs for one site and assembles
// completed traces. FabricController owns one when
// FabricControllerConfig.TraceSample > 0; standalone platforms and pools can
// attach their own via NewTracer + NewSessionTraceObserver. A nil *Tracer is
// "tracing disabled": every method is a cheap no-op.
type Tracer = trace.Tracer

// TraceSpan is one open interval in a trace. All methods are nil-safe, so
// unsampled requests pay a single pointer check.
type TraceSpan = trace.Span

// TraceData is one completed trace: the root span plus every descendant
// record, including segments adopted from remote sites.
type TraceData = trace.TraceData

// TraceSpanRecord is the flat, wire-friendly form of one completed span.
type TraceSpanRecord = trace.SpanRecord

// TraceNode is one vertex of a reassembled trace tree (the /traces/{id}
// JSON shape).
type TraceNode = trace.TraceNode

// TraceFlightRecorder retains completed traces for postmortem reads: every
// trace matching a trigger (failover resubmits, re-attestation evictions,
// errors, slow outliers) plus a deterministic reservoir sample of the rest.
type TraceFlightRecorder = trace.FlightRecorder

// NewTracer creates a tracer for a site; now supplies its simulated
// timebase (e.g. Platform.Clock.Now).
func NewTracer(site string, now func() time.Duration) *Tracer {
	return trace.NewTracer(site, now)
}

// NewTraceFlightRecorder creates a flight recorder keeping up to trigCap
// triggered traces and a sampCap reservoir (non-positive caps use the
// default); traces at least slow long are retained as triggered.
func NewTraceFlightRecorder(trigCap, sampCap int, slow time.Duration) *TraceFlightRecorder {
	return trace.NewFlightRecorder(trigCap, sampCap, slow)
}

// NewSessionTraceObserver adapts the session observer stream into spans
// under the given parent spans (pass it via SessionOptions.Observer).
func NewSessionTraceObserver(parents ...*TraceSpan) Observer {
	return trace.NewSessionObserver(parents...)
}
