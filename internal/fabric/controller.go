package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/metrics"
	"flicker/internal/netsim"
	"flicker/internal/pal"
	"flicker/internal/palcrypto"
	"flicker/internal/sched"
	"flicker/internal/slb"
	"flicker/internal/tpm"
	"flicker/internal/trace"
)

// ControllerAddr is the controller's port name on the switch.
const ControllerAddr = "controller"

// ErrNoHosts is returned by Run when no admitted, non-draining host can
// serve the requested PAL (including after failover exhausted the fleet).
var ErrNoHosts = errors.New("fabric: no admitted host can serve this PAL")

// ErrClosed is returned by Run after Close has begun shutting the
// controller's dispatchers down.
var ErrClosed = errors.New("fabric: controller closed")

// PALError reports a session that a host executed but whose PAL failed.
// It is an application outcome, not a fabric failure, so the controller
// does not resubmit it.
type PALError struct {
	Host string
	Msg  string
}

func (e *PALError) Error() string {
	return fmt.Sprintf("fabric: PAL error on %s: %s", e.Host, e.Msg)
}

// ControllerConfig configures the fabric controller.
type ControllerConfig struct {
	// Seed makes the controller's challenge nonce stream deterministic.
	Seed string
	// NonceWindow bounds how long an admission challenge stays redeemable
	// on the switch clock (attest.NonceAuthority semantics; zero = 1 min).
	NonceWindow time.Duration
	// MissThreshold is how many consecutive missed heartbeats mark a host
	// lost (default 3).
	MissThreshold int
	// ReattestEvery re-attests every admitted host each N Ticks (0 = only
	// at admission).
	ReattestEvery int
	// HostInFlight is the per-host in-flight level above which PAL-affinity
	// routing spills to the least-loaded eligible host (default 8). A home
	// host whose window (Window) is full counts as saturated too, so Runs
	// spill rather than wait for it.
	HostInFlight int
	// MaxResubmits bounds failover attempts per accepted job (default 8).
	MaxResubmits int
	// MaxBatch enables the wire-frame coalescer: Run calls for the same PAL
	// are gathered (sched.Coalescer group commit, same MaxBatch/MaxWait/
	// singleton-fallback discipline as the pool's session coalescer) into one
	// multi-request runBatch frame — one frame on the wire, one host-pool
	// batch, one SKINIT + Seal/Unseal for the whole group. 0 or 1 disables
	// batching: every Run still goes through its PAL's dispatcher, which
	// sends it at once as its own one-member frame. Either way the
	// controller needs Close, and a Run after Close returns ErrClosed.
	MaxBatch int
	// MaxWait bounds how long the coalescer holds the first Run of a group
	// open waiting for companions (default 1ms when MaxBatch > 1; unused
	// otherwise, since a one-member group is never held). A PAL's
	// dispatcher skips the hold (sched.Hold) while its Runs arrive alone:
	// after a hold that gathered no companion, a Run is sent at once while
	// no other Run of its PAL is outstanding, until a group of two or more
	// forms again. A dispatcher that has flushed no group yet follows the
	// latest hold of any of the controller's dispatchers, so a caller that
	// sends one Run at a time pays one hold per controller, not one per PAL.
	MaxWait time.Duration
	// Window is the pipelining depth: how many frames may be outstanding to
	// one host at once before dispatch blocks (default 4). It bounds every
	// run frame, batched or not. Heartbeats and control frames bypass the
	// window entirely.
	Window int
	// Metrics receives the fabric counters (nil = unregistered).
	Metrics *metrics.Registry
	// TraceSample enables distributed tracing: the fraction of Run calls
	// traced end to end (0 = tracing off entirely, 1 = every call). Sampling
	// is a deterministic counter, not a coin flip.
	TraceSample float64
	// TraceSlow is the flight recorder's tail-latency trigger: any completed
	// trace at least this long is retained (0 = no slow trigger).
	TraceSlow time.Duration
	// Events, if non-nil, receives fabric security events (re-attestation
	// evictions) linked to their trace IDs.
	Events *metrics.EventLog
}

// memberState is a host's position in the admission state machine:
//
//	         Admit ok                       Drain
//	(new) ─────────────► admitted ────────────────────► draining ──► drained
//	  │                   │     ▲                            │
//	  │ Admit fails       │     │ re-Admit after restart     │ heartbeat miss /
//	  ▼                   ▼     │                            ▼ died mid-call
//	rejected ◄── reattest │   (any non-admitted state)      lost
//	             fails    └────────────────────────────────►
type memberState int

const (
	stateAdmitted memberState = iota
	stateDraining
	stateDrained
	stateLost
	stateRejected
)

func (s memberState) String() string {
	switch s {
	case stateAdmitted:
		return "admitted"
	case stateDraining:
		return "draining"
	case stateDrained:
		return "drained"
	case stateLost:
		return "lost"
	case stateRejected:
		return "rejected"
	}
	return "unknown"
}

// member is the controller's view of one host.
type member struct {
	name       string
	state      memberState
	pals       map[string]bool
	inflight   int64
	sessions   int64
	misses     int
	reattests  int
	attestedAt time.Duration // switch-clock time of last verified quote
	lastErr    string
	gauge      *metrics.Gauge
	lane       *hostLane
}

// expectedPAL is the controller's own build of a registered PAL: the image
// whose measurements admission quotes must reproduce.
type expectedPAL struct {
	pal    pal.PAL
	im     *slb.Image
	launch tpm.Digest
}

// HostStatus is one member's externally visible state (the /hosts
// endpoint's row).
type HostStatus struct {
	Name       string   `json:"name"`
	State      string   `json:"state"`
	AttestedMS float64  `json:"attested_at_ms"`
	Reattests  int      `json:"reattests"`
	Misses     int      `json:"missed_heartbeats"`
	InFlight   int64    `json:"in_flight"`
	Sessions   int64    `json:"sessions"`
	PALs       []string `json:"pals"`
	LastError  string   `json:"last_error,omitempty"`
}

// Controller admits hosts into the fabric via quote-verified attestation
// and schedules sessions across the admitted fleet.
type Controller struct {
	sw   *netsim.Switch
	port *netsim.Port
	ca   *palcrypto.RSAPublicKey
	auth *attest.NonceAuthority
	cfg  ControllerConfig
	met  *fabricMetrics

	// tracer and flight are nil when cfg.TraceSample is 0, so the untraced
	// fabric pays nothing beyond nil checks.
	tracer *trace.Tracer
	flight *trace.FlightRecorder

	mu       sync.Mutex
	cond     *sync.Cond
	members  map[string]*member
	byName   []*member // members sorted by name; members are never removed
	expected map[string]expectedPAL
	ticks    int

	// Dispatch: one coalescing dispatcher goroutine per PAL feeds pipelined
	// frame goroutines, bounded per host by its member's lane. The
	// dispatchers' holds form one family (holds), so a quiet controller pays
	// one hold, not one per PAL. stop tears the dispatchers down.
	coal     sched.Coalescer
	holds    sched.HoldFamily
	stop     chan struct{}
	stopOnce sync.Once
	frameID  atomic.Uint64
	dispMu   sync.Mutex
	queues   map[string]*palQueue
}

// NewController attaches a controller to the switch. The privacy CA's
// public key is the attestation trust root; registered PAL images are the
// code-identity expectations.
func NewController(sw *netsim.Switch, ca *attest.PrivacyCA, cfg ControllerConfig) (*Controller, error) {
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = 3
	}
	if cfg.HostInFlight <= 0 {
		cfg.HostInFlight = 8
	}
	if cfg.MaxResubmits <= 0 {
		cfg.MaxResubmits = 8
	}
	// Same normalization as the pool's session coalescer — shared discipline,
	// shared defaults.
	co := sched.Coalescer{MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait}.Normalize()
	cfg.MaxBatch, cfg.MaxWait = co.MaxBatch, co.MaxWait
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	c := &Controller{
		sw:       sw,
		ca:       ca.PublicKey(),
		auth:     attest.NewNonceAuthority(sw.Clock().Now, cfg.NonceWindow, []byte(cfg.Seed)),
		cfg:      cfg,
		met:      newFabricMetrics(cfg.Metrics),
		members:  make(map[string]*member),
		expected: make(map[string]expectedPAL),
		coal:     co,
		stop:     make(chan struct{}),
		queues:   make(map[string]*palQueue),
	}
	if cfg.TraceSample > 0 {
		c.tracer = trace.NewTracer("controller", sw.Clock().Now)
		c.tracer.SetSampleRate(cfg.TraceSample)
		c.flight = trace.NewFlightRecorder(0, 0, cfg.TraceSlow)
		c.tracer.OnComplete(c.flight.Offer)
	}
	c.cond = sync.NewCond(&c.mu)
	port, err := sw.Attach(ControllerAddr, nil)
	if err != nil {
		return nil, err
	}
	c.port = port
	if err := c.RegisterPAL(AdmissionPAL()); err != nil {
		return nil, err
	}
	return c, nil
}

// RegisterPAL records the controller's own build of a PAL. Hosts may only
// advertise PALs whose launch measurements match a registered build; the
// admission PAL is registered implicitly at construction.
func (c *Controller) RegisterPAL(p pal.PAL) error {
	im, err := core.BuildImage(p, false)
	if err != nil {
		return fmt.Errorf("fabric: building expected image for %s: %w", p.Name(), err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expected[p.Name()] = expectedPAL{pal: p, im: im, launch: attest.ExpectedLaunchPCR17(im)}
	return nil
}

// Admit challenges a host and, if its quote verifies, makes it schedulable.
// A previously drained, lost, or rejected member may be re-admitted (a
// restarted host rejoining); its attestation starts over from scratch.
func (c *Controller) Admit(host string) error {
	root := c.tracer.Start("fabric.admit")
	root.SetAttr("host", host)
	resp, err := c.attestHost(host, root)
	root.EndErr(err)
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[host]
	if m == nil {
		m = &member{
			name:  host,
			gauge: c.met.inflight.With(host),
			lane:  &hostLane{tokens: make(chan struct{}, c.cfg.Window)},
		}
		c.members[host] = m
		i, _ := slices.BinarySearchFunc(c.byName, host, func(m *member, name string) int {
			return strings.Compare(m.name, name)
		})
		c.byName = slices.Insert(c.byName, i, m)
	}
	if err != nil {
		m.state = stateRejected
		m.lastErr = err.Error()
		m.pals = nil
		c.met.admissionRejected.Inc()
		return fmt.Errorf("fabric: admission of %s rejected: %w", host, err)
	}
	m.state = stateAdmitted
	m.pals = make(map[string]bool, len(resp.PALs))
	for _, p := range resp.PALs {
		m.pals[p.Name] = true
	}
	m.misses = 0
	m.inflight = 0
	m.lastErr = ""
	m.attestedAt = c.sw.Clock().Now()
	m.gauge.Set(0)
	c.met.admissionOK.Inc()
	c.met.hostUp.Inc()
	return nil
}

// attestHost runs one challenge round trip and verifies everything about
// the response: nonce freshness and single-use, certificate chain, quote
// signature, PCR-17 composite against the controller's own admission-PAL
// build, platform identity, and the advertised inventory's launch
// measurements.
func (c *Controller) attestHost(host string, parent *trace.Span) (*challengeResp, error) {
	nonce := c.auth.Issue()
	tid, pid := parent.Context()
	raw, err := c.port.Call(host, encodeChallenge(nonce, traceCtx{TraceID: tid, Parent: pid}))
	if err != nil {
		return nil, err
	}
	body, err := decodeResp(raw, kindChallengeResp)
	if err != nil {
		return nil, err
	}
	resp, err := decodeChallengeResp(body)
	if err != nil {
		return nil, err
	}
	// The host's segment of the admission trace (attestation lock, admission
	// session, quote) splices in under the challenge span.
	parent.Adopt(resp.Spans)
	// Freshness first: a response to an expired or already-redeemed
	// challenge is rejected before any cryptography runs.
	if err := c.auth.Redeem(resp.Att.Nonce); err != nil {
		return nil, err
	}
	if resp.Att.Nonce != nonce {
		// The host answered with a *different* outstanding nonce — possibly
		// replaying another exchange. It burned that nonce; reject.
		return nil, fmt.Errorf("%w: quote answers a different challenge", attest.ErrReplayedNonce)
	}
	adm, ok := c.lookupExpected(AdmissionPALName)
	if !ok {
		return nil, errors.New("fabric: admission PAL not registered")
	}
	if !bytes.Equal(resp.Output, AdmissionReply(nonce[:])) {
		return nil, errors.New("fabric: admission session output mismatch")
	}
	// The launch measurement covers the SLB as loaded, load address
	// patched in — rebuild our own copy of the admission image and patch
	// it with the base the host claims. A lie about the base just makes
	// the quote fail.
	im, err := core.BuildImage(adm.pal, false)
	if err != nil {
		return nil, fmt.Errorf("fabric: rebuilding admission image: %w", err)
	}
	if err := im.Patch(resp.SLBBase); err != nil {
		return nil, fmt.Errorf("fabric: patching admission image: %w", err)
	}
	expected := attest.ExpectedFinalPCR17(im, nonce[:], resp.Output, &nonce)
	if err := attest.Verify(c.ca, &resp.Att, nonce, expected); err != nil {
		return nil, err
	}
	if resp.Att.Cert == nil || resp.Att.Cert.PlatformID != host {
		return nil, fmt.Errorf("fabric: quote certified for %q, want %q",
			certID(resp.Att.Cert), host)
	}
	sawAdmission := false
	for _, p := range resp.PALs {
		exp, ok := c.lookupExpected(p.Name)
		if !ok {
			return nil, fmt.Errorf("fabric: host advertises unregistered PAL %q", p.Name)
		}
		if exp.launch != p.Launch {
			return nil, fmt.Errorf("fabric: host's %q launch measurement diverges from registered build", p.Name)
		}
		if p.Name == AdmissionPALName {
			sawAdmission = true
		}
	}
	if !sawAdmission {
		return nil, errors.New("fabric: inventory omits the admission PAL")
	}
	return resp, nil
}

func certID(cert *attest.AIKCert) string {
	if cert == nil {
		return "<no certificate>"
	}
	return cert.PlatformID
}

func (c *Controller) lookupExpected(name string) (expectedPAL, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	exp, ok := c.expected[name]
	return exp, ok
}

// Run executes one session somewhere in the fleet. Routing is PAL-affinity
// first (sched.Home over the eligible members), spilling to the
// least-loaded eligible host when the home member is saturated. A member
// that fails mid-job — unreachable, died mid-call, draining, or talking
// protocol garbage — is excluded and the job is resubmitted to a survivor,
// so an accepted job is lost only when the whole eligible fleet is gone.
//
// Every Run is queued on its PAL's dispatcher, which gathers same-PAL
// neighbors into one runBatch frame and one host-side batched session when
// cfg.MaxBatch > 1, and sends each Run as its own frame otherwise. Every
// dispatch attempt gets its own child span under the Run's root, so a
// resubmitted job's assembled trace shows the orphaned attempt (whose host
// half died with the host) and the successful sibling side by side. After
// Close, Run returns ErrClosed.
func (c *Controller) Run(palName string, input []byte) ([]byte, error) {
	start := c.sw.Clock().Now()
	root := c.tracer.StartSampled("fabric.run")
	root.SetAttr("pal", palName)
	out, err := c.runBatched(palName, input, root)
	root.EndErr(err)
	c.met.runSeconds.ObserveDurationExemplar(c.sw.Clock().Now()-start, root.TraceHex())
	return out, err
}

// --- dispatch ---------------------------------------------------------------

// fabJob is one Run riding the frame path. Jobs are pooled: the Run that
// took a job returns it only after receiving its one outcome from done, and
// every queue and frame lets go of a job before delivering to it. done is
// buffered: outcome delivery never blocks a frame goroutine.
type fabJob struct {
	input    []byte
	root     *trace.Span
	tried    map[string]bool
	attempts int
	done     chan fabOut
}

type fabOut struct {
	out []byte
	err error
}

var fabJobs = sync.Pool{New: func() any { return &fabJob{done: make(chan fabOut, 1)} }}

func getJob(input []byte, root *trace.Span) *fabJob {
	j := fabJobs.Get().(*fabJob)
	j.input, j.root = input, root
	return j
}

func putJob(j *fabJob) {
	j.input, j.root = nil, nil
	clear(j.tried)
	j.attempts = 0
	fabJobs.Put(j)
}

// frameScratch is one frame's working set on the controller: where it goes
// (controller, member, PAL), its jobs, their attempt spans, the
// request and its encoding, the reply buffer and the decoded reply.
// Scratches are pooled, so a steady-state frame allocates nothing of its
// own; callFrame releases its scratch when it returns.
type frameScratch struct {
	c     *Controller
	m     *member
	pal   string
	jobs  []*fabJob
	atts  []*trace.Span
	req   runBatchReq
	enc   []byte
	reply []byte
	resp  runBatchResp
	// issue is the scratch's frame goroutine body, built once per scratch,
	// so `go s.issue()` spawns a frame without allocating a wrapper.
	issue func()
}

var frameScratches = sync.Pool{New: func() any { return new(frameScratch) }}

// getFrameScratch returns a scratch addressed to c's PAL palName.
func (c *Controller) getFrameScratch(palName string) *frameScratch {
	s := frameScratches.Get().(*frameScratch)
	if s.issue == nil {
		s.issue = func() { s.c.callFrame(s) }
	}
	s.c, s.pal = c, palName
	return s
}

// release drops the frame's references to its destination, jobs, spans,
// inputs and reply records, then recycles the scratch unless it has grown
// outsized.
func (s *frameScratch) release() {
	clear(s.jobs)
	clear(s.atts)
	clear(s.req.Members)
	clear(s.resp.Members)
	s.c, s.m, s.pal = nil, nil, ""
	s.jobs, s.atts = s.jobs[:0], s.atts[:0]
	s.req.Members, s.resp.Members, s.resp.Spans = s.req.Members[:0], s.resp.Members[:0], nil
	if cap(s.enc) > maxPooledBytes || cap(s.reply) > maxPooledBytes || cap(s.resp.Members) > maxPooledMembers {
		return
	}
	frameScratches.Put(s)
}

// hostLane is one host's pipelining window: a frame dispatch acquires a
// token before its port call and releases it as soon as the wire exchange
// returns, so at most Window frames are outstanding to the host at once.
// The blocked-acquire counter makes window backpressure observable:
// contention is not silent.
type hostLane struct {
	tokens chan struct{}
}

func (l *hostLane) acquire(met *fabricMetrics) {
	select {
	case l.tokens <- struct{}{}:
	default:
		met.windowWaits.Inc()
		l.tokens <- struct{}{}
	}
}

func (l *hostLane) release() { <-l.tokens }

// full reports whether every token is taken: a frame for the host would
// wait.
func (l *hostLane) full() bool { return len(l.tokens) == cap(l.tokens) }

// palQueue is one PAL's dispatcher queue and the count of its Runs that
// have not returned yet: queued, being gathered, or on the wire.
type palQueue struct {
	q           chan *fabJob
	outstanding atomic.Int64
}

// queueFor returns (lazily starting) the dispatcher queue for one PAL.
func (c *Controller) queueFor(palName string) *palQueue {
	c.dispMu.Lock()
	defer c.dispMu.Unlock()
	pq, ok := c.queues[palName]
	if !ok {
		depth := 4 * c.coal.MaxBatch
		if depth < 64 {
			depth = 64
		}
		pq = &palQueue{q: make(chan *fabJob, depth)}
		c.queues[palName] = pq
		go c.dispatch(palName, pq)
	}
	return pq
}

// runBatched enqueues one Run on its PAL's coalescer and waits for the
// outcome. The Run is outstanding until its outcome is received, so a
// caller that sends one Run at a time never finds its previous Run still
// outstanding.
func (c *Controller) runBatched(palName string, input []byte, root *trace.Span) ([]byte, error) {
	pq := c.queueFor(palName)
	pq.outstanding.Add(1)
	j := getJob(input, root)
	c.enqueue(pq, j)
	o := <-j.done
	pq.outstanding.Add(-1)
	putJob(j)
	return o.out, o.err
}

// enqueue hands a job to its PAL's dispatcher, or fails it with ErrClosed
// once Close has begun. A job that lands in the queue after Close may find
// the dispatcher already swept and gone, so its enqueuer sweeps the queue
// too: every queued job is delivered exactly once, by whoever receives it.
func (c *Controller) enqueue(pq *palQueue, j *fabJob) {
	q := pq.q
	select {
	case q <- j:
	case <-c.stop:
		j.done <- fabOut{err: ErrClosed}
		return
	}
	select {
	case <-c.stop:
		c.failPending(q)
	default:
	}
}

// dispatch is one PAL's coalescing dispatcher: gather a group (sched.Gather,
// the gather loop the pool's shard workers run too), pick a host, and issue
// the group as pipelined frames. The dispatcher itself never touches the
// wire — frame goroutines do — so gathering the next group overlaps the
// previous frames' round trips. It owns its gather buffer and hold timer,
// reused for every group; the timer starts stopped and Gather arms it. Its
// sched.Hold sends a Run at once, without gathering, when the previous hold
// gathered no companion and no other Run of the PAL is outstanding; until
// the dispatcher has flushed a group of its own, the previous hold is the
// latest one any of the controller's dispatchers recorded. A
// queued companion is not enough of a signal here: the dispatcher hands
// frames to goroutines and comes straight back, so under load it usually
// finds the queue empty while the PAL's earlier Runs are still on the wire.
// (The pool's worker runs its sessions itself, so there a companion that
// arrives meanwhile is queued.)
func (c *Controller) dispatch(palName string, pq *palQueue) {
	q := pq.q
	var group []*fabJob
	hold := sched.NewHold(&c.holds)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		var first *fabJob
		select {
		case first = <-q:
		case <-c.stop:
			c.failPending(q)
			return
		}
		var reason string
		if hold.Skip(pq.outstanding.Load() > 1) {
			group, reason = append(group[:0], first), sched.FlushIdle
		} else {
			group, reason = sched.Gather(c.coal, first, q, group, timer)
		}
		hold.Record(len(group), reason)
		c.met.batchFlush[reason].Inc()
		c.met.batchSize.ObserveExemplar(float64(len(group)), firstRootHex(group))
		c.dispatchGroup(palName, group)
		clear(group)
	}
}

// failPending drains a closing queue, failing everything in hand. Close's
// contract is that no Run is in flight when it is called, so this only
// sweeps stragglers.
func (c *Controller) failPending(q chan *fabJob) {
	for {
		select {
		case j := <-q:
			j.done <- fabOut{err: ErrClosed}
		default:
			return
		}
	}
}

// dispatchGroup splits a gathered group into frames bounded by what one
// batched session's input page can hold (core.BatchInputFits — the same
// bound the pool's coalescer applies) and issues each frame to a host. Each
// frame copies its jobs into its own scratch, so the gather buffer is free
// for the next group as soon as this returns.
func (c *Controller) dispatchGroup(palName string, group []*fabJob) {
	for len(group) > 0 {
		// BatchInputFits is additive over its arguments, so the framed size
		// of the members already taken rides in its header slot.
		n, framed := 1, 4+len(group[0].input)
		for n < len(group) && core.BatchInputFits(framed, len(group[n].input)) {
			framed += 4 + len(group[n].input)
			n++
		}
		s := c.getFrameScratch(palName)
		s.jobs = append(s.jobs, group[:n]...)
		group = group[n:]
		if s.m = c.pickN(palName, s.jobs); s.m == nil {
			for _, j := range s.jobs {
				j.done <- fabOut{err: fmt.Errorf("%w: %s", ErrNoHosts, palName)}
			}
			s.release()
			continue
		}
		// Window backpressure is applied here, in the dispatcher, so the
		// number of outstanding frames per host is bounded before goroutines
		// are spawned for them.
		s.m.lane.acquire(c.met)
		go s.issue()
	}
}

// firstRootHex returns the first traced job's trace ID for exemplar
// attribution ("" when the whole group is untraced).
func firstRootHex(group []*fabJob) string {
	for _, j := range group {
		if h := j.root.TraceHex(); h != "" {
			return h
		}
	}
	return ""
}

// callFrame issues one runBatch frame to its member and settles every job:
// delivered final (an output or a PAL error) or resubmitted. A one-member
// frame is a singleton session on the host. The lane token is released as
// soon as the wire exchange returns — before decode, fan-out, or
// resubmission — so a retry that blocks re-enqueueing never wedges the
// host's window. A delivered or resubmitted job may be recycled at once, so
// the frame never touches a job after settling it.
func (c *Controller) callFrame(s *frameScratch) {
	defer s.release()
	m, palName := s.m, s.pal
	fid := c.frameID.Add(1)
	n := len(s.jobs)
	s.req.Frame, s.req.Trace = fid, traceCtx{}
	s.req.PAL = append(s.req.PAL[:0], palName...)
	for _, j := range s.jobs {
		att := j.root.Child("attempt")
		att.SetAttr("host", m.name)
		if n > 1 {
			att.SetAttrInt("batch", int64(n))
			att.SetAttrInt("frame", int64(fid))
		}
		tid, pid := att.Context()
		tc := traceCtx{TraceID: tid, Parent: pid}
		if s.req.Trace.TraceID == 0 {
			s.req.Trace = tc
		}
		s.atts = append(s.atts, att)
		s.req.Members = append(s.req.Members, runBatchMember{Input: j.input, Trace: tc})
	}
	s.enc = appendRunBatch(s.enc[:0], &s.req)
	raw, err := c.port.CallAppend(m.name, s.enc, s.reply[:0])
	m.lane.release()
	c.finishCallN(m, n)
	if err == nil {
		s.reply = raw
		var body []byte
		if body, err = decodeResp(raw, kindRunBatchResp); err == nil {
			err = decodeRunBatchRespInto(body, &s.resp)
		}
		if err == nil && (s.resp.Frame != fid || len(s.resp.Members) != n) {
			err = fmt.Errorf("%w: batch reply mismatch (frame %d for %d, %d members for %d)",
				ErrBadFrame, s.resp.Frame, fid, len(s.resp.Members), n)
		}
	}
	if err != nil {
		// Died mid-call (the whole reply frame is lost, completed members and
		// all) or protocol garbage from an admitted member (treated like a
		// crash): every member resubmits.
		for i, j := range s.jobs {
			s.atts[i].EndErr(err)
			j.root.Trigger("failover-resubmit")
		}
		c.hostLost(m, err)
		for _, j := range s.jobs {
			c.retryJob(palName, j, m.name)
		}
		return
	}
	// Fan the member outcomes out. The host finished members it reports
	// runOK/runPALError — those are final and never resubmitted; members it
	// reports runLost (an abort interrupted them) or a refusal status
	// resubmit individually, so only the incomplete suffix travels again.
	// The completed sessions are credited before any reply is delivered, so
	// a caller holding its output also finds its run counted.
	ok := 0
	for i := range s.jobs {
		if s.resp.Members[i].Status == runOK {
			ok++
		}
	}
	if ok > 0 {
		c.noteSessions(m, ok)
	}
	adopted := false
	for i, j := range s.jobs {
		mr, att := &s.resp.Members[i], s.atts[i]
		att.Adopt(mr.Spans)
		if !adopted && att != nil {
			// The frame-level host segment (host.runBatch + the shared
			// session's spans) splices under the first traced attempt.
			att.Adopt(s.resp.Spans)
			adopted = true
		}
		switch mr.Status {
		case runOK:
			att.End()
			// mr.Output aliases the pooled reply buffer; copy before it
			// recycles.
			j.done <- fabOut{out: append([]byte(nil), mr.Output...)}
		case runPALError:
			c.met.runsErr.Inc()
			perr := &PALError{Host: m.name, Msg: mr.Err}
			att.EndErr(perr)
			j.done <- fabOut{err: perr}
		default:
			// Draining, lost, or unknown PAL: this member cannot take the job
			// right now; try a survivor.
			att.EndErr(fmt.Errorf("host refused (status %d): %s", mr.Status, mr.Err))
			j.root.Trigger("failover-resubmit")
			c.retryJob(palName, j, m.name)
		}
	}
}

// retryJob excludes the failed host and re-enqueues the job on its PAL's
// dispatcher, failing it once the failover budget is spent. Callers must
// not hold a lane token: the re-enqueue may block on a full queue.
func (c *Controller) retryJob(palName string, j *fabJob, host string) {
	if j.tried == nil {
		j.tried = make(map[string]bool)
	}
	j.tried[host] = true
	j.attempts++
	c.met.resubmits.Inc()
	if j.attempts > c.cfg.MaxResubmits {
		j.done <- fabOut{err: fmt.Errorf("%w: %s (failover budget exhausted)", ErrNoHosts, palName)}
		return
	}
	c.enqueue(c.queueFor(palName), j)
}

// noteSessions credits n completed sessions to a member (its /hosts row)
// and to flicker_fabric_runs_total.
func (c *Controller) noteSessions(m *member, n int) {
	c.mu.Lock()
	m.sessions += int64(n)
	c.mu.Unlock()
	c.met.runsOK.Add(float64(n))
}

// Close tears the dispatchers down: queued jobs fail with ErrClosed and a
// Run after Close returns ErrClosed. Every controller that has run a
// session needs Close to stop its dispatchers, batched or not. Callers
// should let outstanding Runs finish first (Close does not wait for them).
// Calling it more than once is safe.
func (c *Controller) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	return nil
}

// pickN selects an eligible member for a PAL — admitted, serving the PAL,
// and not yet failed by any job of the frame — and reserves (inflight += n)
// a whole frame's worth of in-flight slots on it.
func (c *Controller) pickN(palName string, frame []*fabJob) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf [16]*member
	eligible := buf[:0]
	for _, m := range c.byName {
		if m.state == stateAdmitted && m.pals[palName] && !triedBy(frame, m.name) {
			eligible = append(eligible, m)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	// Same routing core as the in-process pool: hash affinity keeps a PAL's
	// image cache hot on its home member; saturation spills least-loaded. A
	// full window is saturation too: the home member could take no frame
	// now, and a dispatcher that waited for it would leave the others idle.
	i := sched.Home(palName, len(eligible))
	if home := eligible[i]; home.inflight >= int64(c.cfg.HostInFlight) || home.lane.full() {
		i = sched.LeastLoaded(len(eligible), func(j int) int64 { return eligible[j].inflight })
	}
	m := eligible[i]
	m.inflight += int64(len(frame))
	m.gauge.Set(float64(m.inflight))
	return m
}

// triedBy reports whether any job of a frame already failed on host: a frame
// carrying such a job avoids that host for the whole frame.
func triedBy(frame []*fabJob, host string) bool {
	for _, j := range frame {
		if j.tried[host] {
			return true
		}
	}
	return false
}

// finishCallN releases n member reservations and wakes drain waiters.
func (c *Controller) finishCallN(m *member, n int) {
	c.mu.Lock()
	m.inflight -= int64(n)
	m.gauge.Set(float64(m.inflight))
	c.mu.Unlock()
	c.cond.Broadcast()
}

// hostLost transitions a member out of service after a failure.
func (c *Controller) hostLost(m *member, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.state != stateAdmitted && m.state != stateDraining {
		return
	}
	m.state = stateLost
	if cause != nil {
		m.lastErr = cause.Error()
	}
	m.gauge.Set(0)
	c.met.hostDown.Inc()
	c.cond.Broadcast()
}

// Tick drives the controller's periodic work: one heartbeat round, and —
// every cfg.ReattestEvery ticks — a re-attestation sweep. Hosts that miss
// cfg.MissThreshold consecutive heartbeats are marked lost; hosts whose
// re-attestation quote no longer verifies are evicted.
func (c *Controller) Tick() {
	c.mu.Lock()
	c.ticks++
	reattest := c.cfg.ReattestEvery > 0 && c.ticks%c.cfg.ReattestEvery == 0
	var live []*member
	for _, m := range c.byName {
		if m.state == stateAdmitted || m.state == stateDraining {
			live = append(live, m)
		}
	}
	c.mu.Unlock()

	// Heartbeats ride the priority lane: a direct port.Call that never enters
	// a dispatcher queue and never takes a window token, so a host saturated
	// with batched data frames still answers probes and is not falsely
	// evicted. (The host side is symmetric — kindHeartbeat is answered
	// inline with its reply kind, never through the pool.)
	for _, m := range live {
		raw, err := c.port.Call(m.name, encodeEmpty(kindHeartbeat))
		if err == nil {
			if _, err = decodeResp(raw, kindHeartbeatResp); err == nil {
				c.mu.Lock()
				m.misses = 0
				c.mu.Unlock()
				continue
			}
		}
		c.mu.Lock()
		m.misses++
		missed := m.misses >= c.cfg.MissThreshold
		c.mu.Unlock()
		if missed {
			c.hostLost(m, fmt.Errorf("missed %d heartbeats: %w", c.cfg.MissThreshold, err))
		}
	}

	if !reattest {
		return
	}
	for _, m := range live {
		c.mu.Lock()
		skip := m.state != stateAdmitted
		c.mu.Unlock()
		if skip {
			continue
		}
		// Re-attestations are traced unconditionally (when tracing is on):
		// an eviction is rare enough to always deserve a flight-recorder
		// entry, and its event links back to the trace.
		root := c.tracer.Start("fabric.reattest")
		root.SetAttr("host", m.name)
		if _, err := c.attestHost(m.name, root); err != nil {
			c.met.reattestFail.Inc()
			root.Trigger("reattest-evict")
			root.EndErr(err)
			if c.cfg.Events != nil {
				c.cfg.Events.RecordTrace(metrics.EventHostEvicted,
					"fabric: "+m.name+" evicted: re-attestation failed: "+err.Error(),
					root.TraceHex())
			}
			c.hostLost(m, fmt.Errorf("re-attestation failed: %w", err))
			continue
		}
		root.End()
		c.mu.Lock()
		m.reattests++
		m.attestedAt = c.sw.Clock().Now()
		c.mu.Unlock()
		c.met.reattestOK.Inc()
	}
}

// Traces returns the controller's flight recorder, nil when tracing is off
// (cfg.TraceSample == 0). The `flicker serve` /traces endpoints read it.
func (c *Controller) Traces() *trace.FlightRecorder { return c.flight }

// Tracer returns the controller's tracer, nil when tracing is off.
func (c *Controller) Tracer() *trace.Tracer { return c.tracer }

// Drain gracefully removes a host: stop routing new work to it, tell it to
// refuse direct submissions, wait for its controller-tracked in-flight
// jobs to finish, and mark it drained. The host may later rejoin via Admit.
func (c *Controller) Drain(host string) error {
	c.mu.Lock()
	m := c.members[host]
	if m == nil || m.state != stateAdmitted {
		state := "unknown"
		if m != nil {
			state = m.state.String()
		}
		c.mu.Unlock()
		return fmt.Errorf("fabric: cannot drain %s (state %s)", host, state)
	}
	m.state = stateDraining
	c.mu.Unlock()

	if _, err := c.port.Call(host, encodeEmpty(kindDrain)); err != nil {
		c.hostLost(m, err)
		return fmt.Errorf("fabric: drain of %s: host lost: %w", host, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for m.inflight > 0 && m.state == stateDraining {
		c.cond.Wait()
	}
	if m.state != stateDraining {
		return fmt.Errorf("fabric: %s failed while draining (state %s)", host, m.state)
	}
	m.state = stateDrained
	c.met.hostDrained.Inc()
	return nil
}

// Hosts lists every member the controller has ever challenged, sorted by
// name, with its current admission state.
func (c *Controller) Hosts() []HostStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]HostStatus, 0, len(c.byName))
	for _, m := range c.byName {
		hs := HostStatus{
			Name:       m.name,
			State:      m.state.String(),
			AttestedMS: float64(m.attestedAt) / float64(time.Millisecond),
			Reattests:  m.reattests,
			Misses:     m.misses,
			InFlight:   m.inflight,
			Sessions:   m.sessions,
			LastError:  m.lastErr,
		}
		for p := range m.pals {
			hs.PALs = append(hs.PALs, p)
		}
		sort.Strings(hs.PALs)
		out = append(out, hs)
	}
	return out
}

// Live reports how many members are currently schedulable.
func (c *Controller) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.members {
		if m.state == stateAdmitted {
			n++
		}
	}
	return n
}
