package core

// Batched session execution: the paper's Section 7.3-7.4 amortization. A
// batch runs the classic Figure 2 timeline once — one SKINIT, one set of
// closing extends, one suspend/resume — and loops the PAL over N requests
// inside the single pal-exec phase. Carried state crosses the boundary once
// in each direction: the batch header (e.g. a sealed database) is handed to
// the PAL's OpenBatch, and the trailer (the state resealed after the LAST
// request) comes back with the replies, preserving sealed-state
// monotonicity.
//
// Framing: the request group travels through the same 4 KB parameter pages
// a singleton session uses. The input page holds
//
//	u32 header_len | header | u32 count | count x (u32 len | bytes)
//
// and the output page holds
//
//	u32 count | count x (u8 status | u32 len | bytes) | u32 trailer_len | trailer
//
// where status 0 is a reply payload and status 1 an error string. The
// session's InputDigest/OutputDigest — and therefore the PCR-17 extends —
// cover the full frames, so every request's reply is attributable from the
// one attestation.
//
// Security: PCR17AtLaunch is a pure function of the launched image, so a
// batch session's launch identity — the value sealed storage is bound to —
// is bit-identical to a singleton session of the same image. Only the
// closing extends (input/output digests) differ, exactly as they differ
// between any two singleton sessions with different parameters.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"flicker/internal/pal"
	"flicker/internal/slb"
)

// phaseRequest is the observer/trace span name for one batched request. The
// name is constant (not "request[i]") so per-phase metric label cardinality
// stays bounded; the i-th span in a session's timeline is request i.
const phaseRequest = "request"

// ErrBatchTooLarge is returned when a framed batch does not fit the 4 KB
// input page.
var ErrBatchTooLarge = errors.New("core: batch exceeds the 4 KB input page")

// Batch is a group of requests to run in one session.
type Batch struct {
	// Header is state shared by the whole group, delivered to the PAL's
	// OpenBatch (e.g. a sealed database, unsealed once per batch). Plain
	// (non-BatchPAL) PALs accept only an empty header.
	Header []byte
	// Requests are the per-request inputs, in execution order.
	Requests [][]byte
}

// BatchResult is the outcome of a batched session.
type BatchResult struct {
	// Session is the one session that carried the batch (nil if the
	// session aborted).
	Session *SessionResult
	// Replies holds one entry per executed request, in order. After an
	// abort at request k, it holds exactly the completed prefix (k
	// entries).
	Replies []pal.BatchReply
	// Trailer is the PAL's CloseBatch output (e.g. the resealed state).
	Trailer []byte
	// Completed is len(Replies): how many requests executed before the
	// session finished or aborted.
	Completed int

	// session is the storage Session points to, and frame the storage of
	// the framed output page, which is Session.Outputs and which the
	// replies and trailer point into. Both are kept when the result is
	// reused.
	session SessionResult
	frame   []byte
}

// framedPAL runs a request group as one PAL: a batched session is the
// classic phase list with a framedPAL as its PAL, so the engine's one
// pal-exec body runs it like any other. Run decodes the framed input page,
// opens the batch, runs each request as a "request" span, closes the batch
// and returns the framed output page. The embedded PAL is the wrapped one:
// its name, code and image identify the session.
//
// A framedPAL is the platform's batch scratch, reused by every batched
// session under sessionMu: the input frame, the decoded requests, the
// plain-PAL adapter, and the caller's result, which the request loop fills
// in even when the session aborts (the completed-prefix contract).
type framedPAL struct {
	pal.PAL
	st    *sessionState
	bp    pal.BatchPAL
	plain pal.PerRequest
	frame []byte
	reqs  [][]byte
	out   *BatchResult
}

// clear ends a batched session's use of the scratch: the frame and request
// slots are zeroed, so no request bytes outlive their session, and the
// result and PALs are dropped. It runs on success and on abort alike.
func (f *framedPAL) clear() {
	clear(f.frame)
	clear(f.reqs[:cap(f.reqs)])
	f.frame, f.reqs = f.frame[:0], f.reqs[:0]
	f.PAL, f.bp, f.plain.PAL, f.st, f.out = nil, nil, nil, nil, nil
}

// sessionAbort is returned by a framedPAL's Run for a failure that must
// abort the session instead of becoming its PALError: an injected request
// fault, or an input page that no longer holds a well-formed frame.
// palExecBody unwraps it and aborts with err.
type sessionAbort struct{ err error }

func (a sessionAbort) Error() string { return a.err.Error() }

// Run executes the request group. Request-level errors go into the
// replies; OpenBatch, CloseBatch and timeout failures are returned as the
// session's PAL error. The replies and trailer the PAL returned may be
// session scratch (the input read-back, an Unseal plaintext), so they end
// up in the result's frame storage: a completed group's point at their
// bytes in the framed output page (appendBatchOutput), and a failed
// group's completed prefix is copied there (keepReplies).
func (f *framedPAL) Run(env *pal.Env, frame []byte) ([]byte, error) {
	out, err := f.run(env, frame)
	if err != nil {
		f.out.keepReplies()
	}
	return out, err
}

func (f *framedPAL) run(env *pal.Env, frame []byte) ([]byte, error) {
	header, reqs, err := decodeBatchInput(frame, f.reqs[:0])
	f.reqs = reqs
	if err != nil {
		return nil, sessionAbort{err}
	}
	st, res := f.st, f.out
	bctx, err := f.bp.OpenBatch(env, header, len(reqs))
	if err != nil {
		return nil, fmt.Errorf("core: batch open: %w", err)
	}
	for i, req := range reqs {
		// The injector sees each request boundary, so tests can kill the
		// session mid-batch and exercise the prefix contract.
		if st.opts.Injector != nil {
			if err := st.opts.Injector(fmt.Sprintf("request[%d]", i)); err != nil {
				return nil, sessionAbort{err}
			}
		}
		// Each request starts with a clean output register, as a singleton
		// session's fresh Env would: the fallback below must never hand one
		// request a reply staged by an earlier one.
		env.ResetOutput()
		// The request is an observer-visible span: the PAL's charges
		// attribute to it, and it lands in the session timeline, so a trace
		// shows N request spans inside pal-exec. Request errors are
		// reply-level, not session aborts, so PhaseEnd sees nil.
		start := st.p.Clock.Now()
		st.setPhase(phaseRequest)
		for _, o := range st.obs {
			o.PhaseStart(st.res.SessionID, phaseRequest, start)
		}
		out, rerr := f.bp.RunRequest(env, bctx, i, req)
		end := st.p.Clock.Now()
		st.res.Phases = append(st.res.Phases, Phase{Name: phaseRequest, Start: start, Duration: end - start})
		for _, o := range st.obs {
			o.PhaseEnd(st.res.SessionID, phaseRequest, end, nil)
		}
		st.setPhase("pal-exec")
		if rerr == nil && out == nil {
			out = env.Output()
		}
		res.Replies = append(res.Replies, pal.BatchReply{Output: out, Err: rerr})
		if env.TimedOut() {
			// The SLB Core's session timer fired: stop executing, as a
			// singleton would. Completed requests keep their replies; the
			// interrupted one reports the timeout.
			if rerr == nil {
				res.Replies[i] = pal.BatchReply{Err: pal.ErrPALTimeout}
			}
			return nil, pal.ErrPALTimeout
		}
	}
	if res.Trailer, err = f.bp.CloseBatch(env, bctx); err != nil {
		return nil, fmt.Errorf("core: batch close: %w", err)
	}
	res.frame, err = appendBatchOutput(res.frame[:0], res.Replies, res.Trailer)
	if err != nil {
		return nil, err
	}
	if res.Trailer != nil {
		n := len(res.frame)
		res.Trailer = res.frame[n-len(res.Trailer) : n : n]
	}
	return res.frame, nil
}

// keepReplies copies the reply outputs and the trailer of a group that
// produced no output frame into b's frame storage, and points them there.
func (b *BatchResult) keepReplies() {
	n := len(b.Trailer)
	for _, r := range b.Replies {
		n += len(r.Output)
	}
	b.frame = grow(b.frame[:0], n)
	keep := func(s []byte) []byte {
		if s == nil {
			return nil
		}
		at := len(b.frame)
		b.frame = append(b.frame, s...)
		return b.frame[at:len(b.frame):len(b.frame)]
	}
	for i := range b.Replies {
		b.Replies[i].Output = keep(b.Replies[i].Output)
	}
	b.Trailer = keep(b.Trailer)
}

// batchAlloc co-allocates a BatchResult with, for a batch of one, its
// timeline and reply slots: the pipeline's phases plus one request span,
// and one reply.
type batchAlloc struct {
	out    BatchResult
	phases [maxPipelinePhases + 1]Phase
	reply  [1]pal.BatchReply
}

// newBatchResult returns a fresh result for n requests: RunSessionBatch's.
// A batch of one runs in the co-allocated slots; for a larger batch, reset
// sizes the timeline and replies once, so the request spans never regrow
// them.
func newBatchResult(n int) *BatchResult {
	a := &batchAlloc{}
	if n == 1 {
		a.out.session.Phases, a.out.Replies = a.phases[:0], a.reply[:0]
	}
	return &a.out
}

// reset empties b for a batch of n requests, keeping its storage: the
// timeline of its session, the replies and the output frame. Both grow at
// most once, to the batch's size.
func (b *BatchResult) reset(n int) {
	b.session.reset(maxPipelinePhases + n)
	*b = BatchResult{
		Session: &b.session,
		Replies: grow(b.Replies[:0], n),
		session: b.session,
		frame:   b.frame[:0],
	}
}

// Clear ends the caller's use of a reused result: the output frame, which
// the replies and trailer alias, is zeroed, and the replies and every other
// field are dropped. The storage is kept for the next batch run into b.
func (b *BatchResult) Clear() {
	b.session.Clear()
	clear(b.frame[:cap(b.frame)])
	clear(b.Replies[:cap(b.Replies)])
	*b = BatchResult{Replies: b.Replies[:0], session: b.session, frame: b.frame[:0]}
}

// ReplyInto fills dst with request i's view of the shared session: the
// session record narrowed to Reply(i), as if the request had run alone.
// b's session must have completed. The timeline is the pipeline's phases,
// copied into dst's own storage: the group's request spans are left out,
// so no member sees another's timing and the copy fits a fresh result's
// slots. dst keeps its output storage; Outputs aliases b, so dst's outputs
// live as long as b's.
func (b *BatchResult) ReplyInto(i int, dst *SessionResult) {
	rep := b.Reply(i)
	phases, output := dst.Phases[:0], dst.output
	for _, ph := range b.Session.Phases {
		if ph.Name != phaseRequest {
			phases = append(phases, ph)
		}
	}
	*dst = *b.Session
	dst.Phases, dst.output = phases, output
	dst.Outputs, dst.PALError = rep.Output, rep.Err
}

// Reply returns request i's outcome: its own reply, unless a batch-level
// PAL error (Session.PALError) reached it, in which case that error is the
// reply. A shared-timer timeout reaches only the request it interrupted and
// the ones after it: a request that completed before the timer fired keeps
// its reply. On an aborted session (Session nil) only the completed prefix,
// i < Completed, has a reply.
func (b *BatchResult) Reply(i int) pal.BatchReply {
	if b.Session == nil || b.Session.PALError == nil {
		return b.Replies[i]
	}
	err := b.Session.PALError
	if errors.Is(err, pal.ErrPALTimeout) && i < b.Completed && b.Replies[i].Err == nil {
		return b.Replies[i]
	}
	return pal.BatchReply{Err: err}
}

// RunSessionBatch executes the request group in one classic session. The
// returned BatchResult is non-nil even on session abort, reporting the
// completed prefix; the error mirrors RunSession's (infrastructure
// failures only — request-level failures land in the replies, and
// batch-level PAL failures in Session.PALError). A group that overflows
// the input page fails with ErrBatchTooLarge before the session starts.
// The result is fresh memory the caller owns.
func (p *Platform) RunSessionBatch(pl pal.PAL, batch Batch, opts SessionOptions) (*BatchResult, error) {
	if len(batch.Requests) == 0 {
		return nil, errEmptyBatch
	}
	out := newBatchResult(len(batch.Requests))
	err := p.RunSessionBatchInto(out, pl, batch, opts)
	if errors.Is(err, ErrBatchTooLarge) {
		return nil, err
	}
	return out, err
}

// errEmptyBatch rejects a batch with no requests.
var errEmptyBatch = errors.New("core: empty batch")

// RunSessionBatchInto is RunSessionBatch filling out, a caller-supplied
// result whose storage (timeline, replies and output frame) the batch
// reuses. Everything out holds afterwards stays valid until out is run
// into again or cleared.
func (p *Platform) RunSessionBatchInto(out *BatchResult, pl pal.PAL, batch Batch, opts SessionOptions) error {
	out.reset(len(batch.Requests))
	if len(batch.Requests) == 0 {
		return errEmptyBatch
	}
	p.sessionMu.Lock()
	defer p.sessionMu.Unlock()
	f := &p.scratch.framed
	defer f.clear()
	var err error
	if f.frame, err = appendBatchInput(f.frame[:0], batch.Header, batch.Requests); err != nil {
		return err
	}
	f.PAL, f.bp, f.st, f.out = pl, pal.AsBatchWith(pl, &f.plain), &p.scratch.st, out
	opts.Input = f.frame
	err = p.runLocked(&classicBatchPipeline, f, opts, out.Session)
	if err != nil {
		out.Session = nil
	}
	out.Completed = len(out.Replies)
	return err
}

// classicBatchPipeline runs a batched session: the classic phase list, with
// a framedPAL as the PAL. It differs from classicPipeline only in its name,
// which SessionResult.Pipeline, the sessions metric and traces report.
var classicBatchPipeline = sessionPipeline{name: "classic-batch", phases: classicPipeline.phases}

// --- Wire framing -----------------------------------------------------------

// batchInputOverhead is the fixed frame cost: header length + count words.
const batchInputOverhead = 8

// BatchInputFits reports whether a header plus requests of the given sizes
// fit the input page once framed. The pool's coalescer uses it to bound
// group growth before paying for a session.
func BatchInputFits(headerLen int, reqLens ...int) bool {
	total := batchInputOverhead + headerLen
	for _, n := range reqLens {
		total += 4 + n
	}
	return total <= slb.PageSize-4
}

// appendBatchInput frames the header and requests for the input page,
// appending to dst. A group that would overflow the page is rejected before
// anything is appended.
func appendBatchInput(dst, header []byte, reqs [][]byte) ([]byte, error) {
	total := batchInputOverhead + len(header)
	for _, r := range reqs {
		total += 4 + len(r)
	}
	if total > slb.PageSize-4 {
		return dst, fmt.Errorf("%w: %d requests frame to %d bytes", ErrBatchTooLarge, len(reqs), total)
	}
	dst = binary.BigEndian.AppendUint32(slices.Grow(dst, total), uint32(len(header)))
	dst = append(dst, header...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(reqs)))
	for _, r := range reqs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r)))
		dst = append(dst, r...)
	}
	return dst, nil
}

// decodeBatchInput parses an input-page frame, appending the requests,
// which alias b, to reqs. It returns reqs even on error, so a caller's
// scratch keeps its storage. The count word is untrusted: a count the
// remaining bytes cannot frame (at least a length word per request) is
// rejected before any request is taken.
func decodeBatchInput(b []byte, reqs [][]byte) (header []byte, _ [][]byte, err error) {
	take := func() ([]byte, error) {
		if len(b) < 4 {
			return nil, errors.New("core: truncated batch input frame")
		}
		n := binary.BigEndian.Uint32(b)
		if int(n) > len(b)-4 {
			return nil, errors.New("core: batch input field overflow")
		}
		f := b[4 : 4+n]
		b = b[4+n:]
		return f, nil
	}
	if header, err = take(); err != nil {
		return nil, reqs, err
	}
	if len(b) < 4 {
		return nil, reqs, errors.New("core: truncated batch input count")
	}
	count := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(count) > uint64(len(b)/4) {
		return nil, reqs, fmt.Errorf("core: batch input count %d exceeds its %d-byte frame", count, len(b))
	}
	for range count {
		r, err := take()
		if err != nil {
			return nil, reqs, err
		}
		reqs = append(reqs, r)
	}
	if len(b) != 0 {
		return nil, reqs, errors.New("core: trailing bytes after batch input frame")
	}
	return header, reqs, nil
}

// Reply status bytes in the output frame.
const (
	batchReplyOK  byte = 0
	batchReplyErr byte = 1
)

// appendBatchOutput frames the replies and trailer for the output page,
// appending to dst, and points each successful reply at its payload in
// dst. A successful reply whose payload would overflow the shared page is
// downgraded in place to a reply-level error — the other replies and,
// critically, the trailer (carried state) still make it out. Only a frame
// that cannot fit even its error strings fails the batch, before anything
// is appended.
func appendBatchOutput(dst []byte, replies []pal.BatchReply, trailer []byte) ([]byte, error) {
	const capacity = slb.PageSize - 4
	size := func() int {
		total := 4 + 4 + len(trailer)
		for _, r := range replies {
			total += 5
			if r.Err != nil {
				total += len(r.Err.Error())
			} else {
				total += len(r.Output)
			}
		}
		return total
	}
	if size() > capacity {
		// Downgrade the largest successful replies until the frame fits.
		for size() > capacity {
			worst, worstLen := -1, 0
			for i, r := range replies {
				if r.Err == nil && len(r.Output) > worstLen {
					worst, worstLen = i, len(r.Output)
				}
			}
			if worst < 0 {
				return dst, fmt.Errorf("core: batch output frame of %d bytes exceeds the 4 KB output page", size())
			}
			replies[worst] = pal.BatchReply{Err: fmt.Errorf("core: reply of %d bytes overflows the shared output page", worstLen)}
		}
	}
	dst = binary.BigEndian.AppendUint32(grow(dst, size()), uint32(len(replies)))
	for i, r := range replies {
		if r.Err != nil {
			msg := r.Err.Error()
			dst = append(dst, batchReplyErr)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg)))
			dst = append(dst, msg...)
			continue
		}
		dst = append(dst, batchReplyOK)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Output)))
		if r.Output != nil {
			dst = append(dst, r.Output...)
			replies[i].Output = dst[len(dst)-len(r.Output) : len(dst) : len(dst)]
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(trailer)))
	return append(dst, trailer...), nil
}

// DecodeBatchOutput parses a batched session's Outputs frame back into
// per-request replies and the trailer — the verifier-side complement of the
// framing the attestation's output digest covers.
func DecodeBatchOutput(b []byte) ([]pal.BatchReply, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("core: truncated batch output frame")
	}
	count := binary.BigEndian.Uint32(b)
	b = b[4:]
	// Verifier-side parse of untrusted bytes: a count the remaining bytes
	// cannot frame (at least 5 bytes per reply) is rejected before it sizes
	// the reply slice.
	if uint64(count) > uint64(len(b)/5) {
		return nil, nil, fmt.Errorf("core: batch output count %d exceeds its %d-byte frame", count, len(b))
	}
	replies := make([]pal.BatchReply, 0, count)
	for range count {
		if len(b) < 5 {
			return nil, nil, errors.New("core: truncated batch reply")
		}
		status := b[0]
		n := binary.BigEndian.Uint32(b[1:])
		if int(n) > len(b)-5 {
			return nil, nil, errors.New("core: batch reply overflow")
		}
		payload := append([]byte(nil), b[5:5+n]...)
		b = b[5+n:]
		switch status {
		case batchReplyOK:
			replies = append(replies, pal.BatchReply{Output: payload})
		case batchReplyErr:
			replies = append(replies, pal.BatchReply{Err: errors.New(string(payload))})
		default:
			return nil, nil, fmt.Errorf("core: unknown batch reply status %d", status)
		}
	}
	if len(b) < 4 {
		return nil, nil, errors.New("core: truncated batch trailer")
	}
	n := binary.BigEndian.Uint32(b)
	if int(n) != len(b)-4 {
		return nil, nil, errors.New("core: batch trailer length mismatch")
	}
	return replies, append([]byte(nil), b[4:4+n]...), nil
}
