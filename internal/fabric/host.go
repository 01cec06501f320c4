package fabric

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"flicker/internal/apps/admit"
	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/netsim"
	"flicker/internal/pal"
	"flicker/internal/pool"
	"flicker/internal/tpm"
	"flicker/internal/trace"
)

// AdmissionPALName is the wire name of the PAL every host must run,
// freshly, to join the fabric. Its post-session PCR-17 value is what the
// controller's quote check pins.
const AdmissionPALName = admit.PALName

// AdmissionReply is the admission PAL's deterministic output for a
// challenge nonce (see internal/apps/admit — the PAL body is measured
// code and lives outside this untrusted package).
func AdmissionReply(nonce []byte) []byte { return admit.Reply(nonce) }

// AdmissionPAL returns the canonical admission PAL. A host built with a
// different admission binary — a tampered SLB — produces a different
// PCR-17 launch measurement and its Quote fails verification.
func AdmissionPAL() pal.PAL { return admit.PAL() }

// HostConfig configures one host agent.
type HostConfig struct {
	// Name is the host's port address on the switch and its platform
	// identity in the AIK certificate.
	Name string
	// Platform is the template for the host's shard platforms (as
	// pool.Config.Platform). The host's pool otherwise runs on pool.Config's
	// defaults.
	Platform core.PlatformConfig
	// AdmissionPAL overrides the canonical admission PAL. Only tests use
	// this, to model a host whose measured launch code differs from what
	// the controller registered.
	AdmissionPAL pal.PAL
}

// Host is one fabric member: a platform pool plus an attestation daemon,
// serving the framed RPC protocol on a switch port. A host accepts
// sessions only between a successful admission and a drain or crash;
// whether it is *assigned* sessions is the controller's decision, gated on
// the host's Quote.
type Host struct {
	name      string
	pool      *pool.Pool
	platform  *core.Platform // shard 0; admission sessions and quotes run here
	daemon    *attest.Daemon
	port      *netsim.Port
	admission pal.PAL

	// tracer mints this host's segments of controller-rooted traces. Its
	// timebase is shard 0's simulated clock; session-internal spans are
	// replayed on their own shard's clock by trace.SessionObserver, and the
	// per-record Site field keeps the timebases apart when traces reassemble.
	tracer *trace.Tracer

	// attestMu serializes attestation (write side) against session traffic
	// (read side): a Quote must cover the admission session's PCR-17 value
	// with no interleaved session mutating it.
	attestMu sync.RWMutex

	palMu  sync.Mutex
	pals   map[string]pal.PAL
	launch map[string]tpm.Digest

	draining atomic.Bool
}

// NewHost builds a host agent and attaches it to the switch under
// cfg.Name. The returned host serves requests immediately but will not
// receive work from a controller until admitted.
func NewHost(sw *netsim.Switch, ca *attest.PrivacyCA, cfg HostConfig) (*Host, error) {
	if cfg.Name == "" {
		return nil, errors.New("fabric: host needs a name")
	}
	pcfg := cfg.Platform
	if pcfg.Seed == "" {
		pcfg.Seed = "fabric-host|" + cfg.Name
	}
	p, err := pool.New(pool.Config{Platform: pcfg})
	if err != nil {
		return nil, err
	}
	h := &Host{
		name:     cfg.Name,
		pool:     p,
		platform: p.Shard(0),
		pals:     make(map[string]pal.PAL),
		launch:   make(map[string]tpm.Digest),
	}
	h.tracer = trace.NewTracer(cfg.Name, h.platform.Clock.Now)
	h.daemon, err = attest.NewDaemon(h.platform.OSTPM(), tpm.Digest{}, ca, cfg.Name)
	if err != nil {
		p.Close()
		return nil, err
	}
	h.admission = cfg.AdmissionPAL
	if h.admission == nil {
		h.admission = AdmissionPAL()
	}
	if err := h.RegisterPAL(h.admission); err != nil {
		p.Close()
		return nil, err
	}
	port, err := sw.AttachHandler(cfg.Name, h.handle)
	if err != nil {
		p.Close()
		return nil, err
	}
	h.port = port
	return h, nil
}

// RegisterPAL makes a PAL servable by this host and records its expected
// PCR-17 launch measurement for the join inventory.
func (h *Host) RegisterPAL(p pal.PAL) error {
	im, err := core.BuildImage(p, false)
	if err != nil {
		return fmt.Errorf("fabric: building image for %s: %w", p.Name(), err)
	}
	h.palMu.Lock()
	defer h.palMu.Unlock()
	h.pals[p.Name()] = p
	h.launch[p.Name()] = attest.ExpectedLaunchPCR17(im)
	return nil
}

// Name returns the host's switch address / platform identity.
func (h *Host) Name() string { return h.name }

// Pool returns the host's session pool (for fleet-wide stats handlers).
func (h *Host) Pool() *pool.Pool { return h.pool }

// Kill models a crash: the port closes immediately, so in-flight calls
// lose their replies (the switch reports died-mid-call) and nothing new
// reaches the host. The pool is left running — a crashed machine does not
// get to run shutdown hooks.
func (h *Host) Kill() { h.port.Close() }

// Close shuts the host down gracefully: detach from the network, then
// drain and stop the pool.
func (h *Host) Close() error {
	h.port.Close()
	return h.pool.Close()
}

// handle serves one RPC frame, appending the reply to dst (the caller's
// reply buffer). It runs on the caller's goroutine (netsim's synchronous
// call model); concurrency comes from concurrent callers.
func (h *Host) handle(dst, req []byte) []byte {
	if len(req) == 0 {
		return appendErrorResp(dst, "empty frame")
	}
	switch req[0] {
	case kindChallenge:
		return h.handleChallenge(dst, req[1:])
	case kindRunBatch:
		return h.handleRunBatch(dst, req[1:])
	case kindHeartbeat:
		return append(dst, kindHeartbeatResp)
	case kindDrain:
		h.draining.Store(true)
		return append(dst, kindDrainResp)
	default:
		return appendErrorResp(dst, fmt.Sprintf("unknown frame kind %d", req[0]))
	}
}

// handleChallenge answers an admission (or re-attestation) challenge: run
// the admission PAL with the verifier's nonce bound into the session, then
// Quote the resulting PCR-17 under the same nonce. The write lock excludes
// session traffic for the duration so no other session's measurements leak
// into (or race) the quoted value.
func (h *Host) handleChallenge(dst, body []byte) []byte {
	nonce, tc, err := decodeChallenge(body)
	if err != nil {
		return appendErrorResp(dst, err.Error())
	}
	// Join the controller's admission trace (nil segment when untraced); the
	// segment covers the attestation lock wait, the admission session, and
	// the quote, and ships back inside the response.
	seg := h.tracer.Join(tc.TraceID, tc.Parent, "host.admit")
	seg.SetAttr("host", h.name)
	h.attestMu.Lock()
	defer h.attestMu.Unlock()
	res, err := h.platform.RunSession(h.admission, core.SessionOptions{
		Input:    nonce[:],
		Nonce:    &nonce,
		TraceID:  seg.TraceHex(),
		Observer: sessionObserver(seg),
	})
	if err != nil {
		seg.EndErr(err)
		return appendErrorResp(dst, fmt.Sprintf("admission session: %v", err))
	}
	att, err := h.daemon.Quote(nonce)
	if err != nil {
		seg.EndErr(err)
		return appendErrorResp(dst, fmt.Sprintf("quote: %v", err))
	}
	seg.End()
	return appendChallengeResp(dst, &challengeResp{
		PALs:    h.inventory(),
		Output:  res.Outputs,
		SLBBase: res.SLBBase,
		Att:     *att,
		Spans:   seg.Records(),
	})
}

// sessionObserver wraps a joined segment as a core.Observer, staying nil
// (no observer overhead at all) on the untraced path.
func sessionObserver(seg *trace.Span) core.Observer {
	if seg == nil {
		return nil
	}
	return trace.NewSessionObserver(seg)
}

// hostScratch is one runBatch frame's working set on the host: the decoded
// request (aliasing the frame), the session inputs, the member segments and
// observers, the session results, and the reply being built. one is the
// result a one-member frame's session fills, batch the one a larger frame's
// batched session fills; the engine reuses their storage (timeline, output
// copy, replies and output frame), and the members' outputs alias it
// until the reply is encoded. Scratches are pooled, and the reply is
// encoded into the caller's buffer, so a steady-state frame allocates
// nothing on the host.
type hostScratch struct {
	req   runBatchReq
	reqs  [][]byte
	segs  []*trace.Span
	obs   []core.Observer
	one   core.SessionResult
	batch core.BatchResult
	resp  runBatchResp
}

var hostScratches = sync.Pool{New: func() any { return new(hostScratch) }}

// reset drops the frame's references to inputs, spans and outputs, and
// zeroes the results' input and output bytes, so nothing of the frame stays
// readable through the scratch.
func (s *hostScratch) reset() {
	clear(s.req.Members)
	clear(s.reqs)
	clear(s.segs)
	clear(s.obs)
	clear(s.resp.Members)
	s.one.Clear()
	s.batch.Clear()
	s.req.PAL, s.req.Members = nil, s.req.Members[:0]
	s.reqs, s.segs, s.obs = s.reqs[:0], s.segs[:0], s.obs[:0]
	s.resp.Members, s.resp.Spans = s.resp.Members[:0], nil
}

// release resets the scratch, then recycles it unless a forged member count
// has grown it outsized.
func (s *hostScratch) release() {
	s.reset()
	if cap(s.req.Members) > maxPooledMembers {
		return
	}
	hostScratches.Put(s)
}

// refuse answers every member of the frame with one refusal status
// (draining, unknown PAL), keeping the frame echo and member count the
// controller validates.
func (s *hostScratch) refuse(status byte, msg string) {
	for range s.req.Members {
		s.resp.Members = append(s.resp.Members, runBatchMemberResp{Status: status, Err: msg})
	}
}

// handleRunBatch serves the one run frame kind on a pooled scratch.
func (h *Host) handleRunBatch(dst, body []byte) []byte {
	s := hostScratches.Get().(*hostScratch)
	defer s.release()
	return h.serveRunBatch(dst, body, s)
}

// serveRunBatch serves one run frame on s. A one-member frame is a
// singleton session (runOne); a larger frame runs as ONE batched pool
// session (runBatch). The reply is appended to dst, grown at most once.
func (h *Host) serveRunBatch(dst, body []byte, s *hostScratch) []byte {
	if err := decodeRunBatchInto(body, &s.req); err != nil {
		return appendErrorResp(dst, err.Error())
	}
	if len(s.req.Members) == 0 {
		return appendErrorResp(dst, "empty batch")
	}
	s.resp.Frame = s.req.Frame
	h.palMu.Lock()
	p := h.pals[string(s.req.PAL)]
	h.palMu.Unlock()
	switch {
	case h.draining.Load():
		s.refuse(runDraining, "host draining")
	case p == nil:
		s.refuse(runUnknownPAL, "PAL not registered: "+string(s.req.PAL))
	case len(s.req.Members) == 1:
		h.runOne(p, s)
	default:
		h.runBatch(p, s)
	}
	return appendRunBatchResp(slices.Grow(dst, runBatchRespSize(&s.resp)), &s.resp)
}

// runOne executes a one-member frame exactly as a singleton session:
// through pool.Run on the singleton engine, with the member's host.run
// segment directly under its attempt and no host.runBatch wrapper, so PCR
// 17, the output and the trace match an unbatched run.
func (h *Host) runOne(p pal.PAL, s *hostScratch) {
	m := &s.req.Members[0]
	// The host segment starts before the attestation read lock, so traces of
	// slow requests show time spent waiting out a concurrent re-attestation.
	seg := h.tracer.Join(m.Trace.TraceID, m.Trace.Parent, "host.run")
	if seg != nil {
		seg.SetAttr("host", h.name)
		seg.SetAttr("pal", string(s.req.PAL))
	}
	h.attestMu.RLock()
	res := &s.one
	err := h.pool.RunInto(res, p, core.SessionOptions{
		Input:    m.Input,
		TraceID:  seg.TraceHex(),
		Observer: sessionObserver(seg),
	})
	h.attestMu.RUnlock()
	seg.EndErr(err)
	var mr runBatchMemberResp
	switch {
	case errors.Is(err, pool.ErrClosed):
		mr.Status, mr.Err = runLost, err.Error()
	case err != nil:
		mr.Status, mr.Err = runPALError, err.Error()
	case res.PALError != nil:
		mr.Status, mr.Err = runPALError, res.PALError.Error()
	default:
		mr.Status, mr.Output = runOK, res.Outputs
	}
	mr.Spans = seg.Records()
	s.resp.Members = append(s.resp.Members, mr)
}

// runBatch executes a multi-member frame as ONE batched pool session: one
// SKINIT, one Seal/Unseal for the whole group. Per-member statuses carry
// the completed-prefix contract back to the controller — members the batch
// engine finished are final (runOK / runPALError), members an abort
// interrupted are runLost so only the incomplete suffix is resubmitted.
func (h *Host) runBatch(p pal.PAL, s *hostScratch) {
	r := &s.req
	n := len(r.Members)
	// The frame-level segment parents under the first traced member's attempt
	// span; each member's own segment parents under its own attempt — except
	// the frame's lead trace, whose member segment nests under the frame
	// segment so the exemplar trace reads attempt → host.runBatch → host.run
	// → session.
	seg := h.tracer.Join(r.Trace.TraceID, r.Trace.Parent, "host.runBatch")
	if seg != nil {
		seg.SetAttr("host", h.name)
		seg.SetAttr("pal", string(r.PAL))
		seg.SetAttrInt("batch", int64(n))
	}
	_, segID := seg.Context()
	for i := range r.Members {
		m := &r.Members[i]
		s.reqs = append(s.reqs, m.Input)
		parent := m.Trace.Parent
		if seg != nil && m.Trace.TraceID == r.Trace.TraceID {
			parent = segID
		}
		ms := h.tracer.Join(m.Trace.TraceID, parent, "host.run")
		ms.SetAttr("host", h.name)
		s.segs = append(s.segs, ms)
		if o := sessionObserver(ms); o != nil {
			s.obs = append(s.obs, o)
		}
	}
	h.attestMu.RLock()
	br := &s.batch
	err := h.pool.RunBatch(br, p, s.reqs, core.SessionOptions{
		TraceID:  seg.TraceHex(),
		Observer: core.CombineObservers(s.obs...),
	})
	h.attestMu.RUnlock()
	for i := 0; i < n; i++ {
		var mr runBatchMemberResp
		switch {
		case errors.Is(err, pool.ErrClosed):
			mr.Status, mr.Err = runLost, err.Error()
		case err != nil && i >= br.Completed:
			// The shared session aborted before this member's request
			// completed: it reports runLost and travels again. Members
			// before the interruption point keep their replies below (the
			// batch engine's completed-prefix contract).
			mr.Status, mr.Err = runLost, err.Error()
		default:
			// A batch-level PAL failure that reached this member is final,
			// never resubmitted.
			if rep := br.Reply(i); rep.Err != nil {
				mr.Status, mr.Err = runPALError, rep.Err.Error()
			} else {
				mr.Status, mr.Output = runOK, rep.Output
			}
		}
		ms := s.segs[i]
		if mr.Status == runOK {
			ms.End()
		} else {
			ms.EndErr(errors.New(mr.Err))
		}
		mr.Spans = ms.Records()
		s.resp.Members = append(s.resp.Members, mr)
	}
	seg.EndErr(err)
	s.resp.Spans = seg.Records()
}

// inventory snapshots the host's registered PALs, sorted by name.
func (h *Host) inventory() []hostPAL {
	h.palMu.Lock()
	defer h.palMu.Unlock()
	names := make([]string, 0, len(h.pals))
	for name := range h.pals {
		names = append(names, name)
	}
	sort.Strings(names)
	inv := make([]hostPAL, 0, len(names))
	for _, name := range names {
		inv = append(inv, hostPAL{Name: name, Launch: h.launch[name]})
	}
	return inv
}
