// Package fabric is the two-tier serving cluster: a controller admits host
// agents into a fleet, schedules sessions across them with the same
// PAL-affinity policy the in-process pool uses (internal/sched), and
// survives host loss by resubmitting work to survivors. Admission is
// Flicker's twist on cluster membership: a host receives traffic only
// after a TPM Quote over PCR 17 — produced by actually running the
// admission PAL under SKINIT — matches the value the controller computes
// from its own copy of the PAL images, so "the host runs the code we
// registered" is verified, not configured (Section 4.4's protocol made
// load-bearing).
//
// This file is the wire format: small framed request/response messages
// exchanged over internal/netsim. Frames cross a trust boundary — a host
// is untrusted until (and honestly, after) admission — so every decoded
// count and length is clamped against the remaining frame bytes before it
// sizes an allocation, the discipline `flickervet untrustedlen` enforces.
package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"flicker/internal/attest"
	"flicker/internal/tpm"
	"flicker/internal/trace"
)

// Frame kinds. Requests flow controller → host; each has one response
// kind. kindError is the generic failure response to any request. Kind
// numbers are never reused or renumbered (admitted fleets may mix
// controller and host builds in tests).
const (
	kindChallenge byte = iota + 1
	kindChallengeResp
	_ // 3 and 4: the retired singleton run pair; a singleton is a one-member runBatch
	_
	kindHeartbeat
	kindHeartbeatResp
	kindDrain
	kindDrainResp
	_ // 9 and 10: the retired stats pair; hosts report through the metrics registry
	_
	kindError
	kindRunBatch
	kindRunBatchResp
)

// Run response statuses.
const (
	runOK byte = iota
	runPALError
	runDraining
	runUnknownPAL
	runLost
)

// ErrBadFrame is wrapped by every decode failure.
var ErrBadFrame = errors.New("fabric: malformed frame")

// traceCtx is the distributed-trace propagation pair carried on every
// request frame: the trace ID and the caller's span that the host-side
// segment should parent under. A zero pair means "untraced" and costs the
// host a single comparison.
type traceCtx struct {
	TraceID uint64
	Parent  uint64
}

// hostPAL is one entry of a host's PAL inventory: the wire name and the
// expected PCR-17 launch value of the image the host built for it.
type hostPAL struct {
	Name   string
	Launch tpm.Digest
}

// challengeResp is the host's answer to an admission challenge.
type challengeResp struct {
	PALs    []hostPAL
	Output  []byte // admission session output (bound into PCR 17)
	SLBBase uint32 // where the admission SLB was loaded (the image's
	// launch measurement covers the patched load address, so the verifier
	// patches its own build with this before recomputing PCR 17)
	Att attest.Attestation
	// Spans is the host-side segment of the admission trace ([] when the
	// challenge was untraced).
	Spans []trace.SpanRecord
}

// runBatchMember is one request riding in a runBatch frame: its input and
// its own trace propagation pair (each member belongs to its own Run root
// on the controller).
type runBatchMember struct {
	Input []byte
	Trace traceCtx
}

// runBatchReq asks a host to execute a same-PAL group as ONE batched pool
// session: one frame on the wire, one SKINIT + Seal/Unseal on the host.
// It is the only run frame: a one-member frame is a singleton session.
// Frame is the pipelining correlation ID — the host echoes it so the
// controller can verify a reply answers the frame it sent on that lane.
// Trace is the frame-level propagation pair (the first traced member), the
// parent of the host's host.runBatch segment. PAL is the wire name as bytes,
// so a decoded frame aliases it instead of allocating a string.
type runBatchReq struct {
	Frame   uint64
	PAL     []byte
	Trace   traceCtx
	Members []runBatchMember
}

// runBatchMemberResp is one member's outcome. The completed-prefix contract
// rides in the statuses: members the host finished are runOK/runPALError and
// are never resubmitted; members an abort interrupted come back runLost so
// the controller resubmits ONLY the incomplete suffix.
type runBatchMemberResp struct {
	Status byte
	Output []byte
	Err    string
	// Spans is this member's host-side segment (its host.run span), shipped
	// back for the controller to splice under the member's attempt span.
	Spans []trace.SpanRecord
}

// runBatchResp reports a whole frame's outcomes. Spans is the frame-level
// host segment (the host.runBatch span plus the shared session's spans),
// spliced under the first traced member's attempt.
type runBatchResp struct {
	Frame   uint64
	Members []runBatchMemberResp
	Spans   []trace.SpanRecord
}

// --- primitive append/read helpers -----------------------------------------

func appendU16(b []byte, v int) []byte {
	return binary.BigEndian.AppendUint16(b, uint16(v))
}

func appendU32(b []byte, v int) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(v))
}

func appendBytes16(b, p []byte) []byte {
	return append(appendU16(b, len(p)), p...)
}

func appendBytes32(b, p []byte) []byte {
	return append(appendU32(b, len(p)), p...)
}

func readU16(b []byte) (int, []byte, error) {
	if len(b) < 2 {
		return 0, nil, fmt.Errorf("%w: truncated u16", ErrBadFrame)
	}
	return int(binary.BigEndian.Uint16(b)), b[2:], nil
}

func readU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: truncated u32", ErrBadFrame)
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

func readU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated u64", ErrBadFrame)
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// readBytes16 reads a u16-length-prefixed field. The length is clamped by
// the remaining frame before any slicing: a forged length cannot reach
// past the frame.
func readBytes16(b []byte) ([]byte, []byte, error) {
	n, rest, err := readU16(b)
	if err != nil {
		return nil, nil, err
	}
	if n > len(rest) {
		return nil, nil, fmt.Errorf("%w: field length %d exceeds remaining %d bytes", ErrBadFrame, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// readBytes32 is readBytes16 with a u32 length word, same clamp.
func readBytes32(b []byte) ([]byte, []byte, error) {
	v, rest, err := readU32(b)
	if err != nil {
		return nil, nil, err
	}
	n := int(v)
	if n < 0 || n > len(rest) {
		return nil, nil, fmt.Errorf("%w: field length %d exceeds remaining %d bytes", ErrBadFrame, v, len(rest))
	}
	return rest[:n], rest[n:], nil
}

func readDigest(b []byte) (tpm.Digest, []byte, error) {
	var d tpm.Digest
	if len(b) < len(d) {
		return d, nil, fmt.Errorf("%w: truncated digest", ErrBadFrame)
	}
	copy(d[:], b)
	return d, b[len(d):], nil
}

// --- trace context and span records -----------------------------------------

// appendTraceCtx writes the fixed 16-byte propagation pair. It is always
// written (zeros when untraced) so frame layouts stay positional and the
// trailing-bytes checks keep their teeth.
func appendTraceCtx(b []byte, tc traceCtx) []byte {
	b = binary.BigEndian.AppendUint64(b, tc.TraceID)
	return binary.BigEndian.AppendUint64(b, tc.Parent)
}

func readTraceCtx(b []byte) (traceCtx, []byte, error) {
	var tc traceCtx
	var err error
	if tc.TraceID, b, err = readU64(b); err != nil {
		return tc, nil, err
	}
	if tc.Parent, b, err = readU64(b); err != nil {
		return tc, nil, err
	}
	return tc, b, nil
}

// spanRecMin is the smallest possible encoded span record: two 8-byte IDs,
// empty name and site (2-byte lengths), two 8-byte times, empty error, and a
// zero attribute count. It bounds the forged-count clamp in readSpans.
const spanRecMin = 8 + 8 + 2 + 2 + 8 + 8 + 2 + 2

// attrMin is the smallest encoded attribute: two empty 2-byte-length fields.
const attrMin = 2 + 2

// appendSpans encodes a span-record blob: a u16 count followed by each
// record's IDs, name, site, times, error, and attributes. Counts past the
// u16 range are truncated at encode time so the wire count always matches
// what follows.
func appendSpans(b []byte, recs []trace.SpanRecord) []byte {
	if len(recs) > 0xffff {
		recs = recs[:0xffff]
	}
	b = appendU16(b, len(recs))
	for _, r := range recs {
		b = binary.BigEndian.AppendUint64(b, r.Span)
		b = binary.BigEndian.AppendUint64(b, r.Parent)
		b = appendBytes16(b, []byte(r.Name))
		b = appendBytes16(b, []byte(r.Site))
		b = binary.BigEndian.AppendUint64(b, uint64(r.Start))
		b = binary.BigEndian.AppendUint64(b, uint64(r.Duration))
		b = appendBytes16(b, []byte(r.Err))
		b = appendU16(b, len(r.Attrs))
		for _, a := range r.Attrs {
			b = appendBytes16(b, []byte(a.Key))
			b = appendBytes16(b, []byte(a.Value))
		}
	}
	return b
}

// spansSize is the exact length appendSpans writes for recs.
func spansSize(recs []trace.SpanRecord) int {
	if len(recs) > 0xffff {
		recs = recs[:0xffff]
	}
	n := 2
	for _, r := range recs {
		n += spanRecMin + len(r.Name) + len(r.Site) + len(r.Err)
		for _, a := range r.Attrs {
			n += attrMin + len(a.Key) + len(a.Value)
		}
	}
	return n
}

// readSpans decodes a span-record blob. Both the record count and each
// record's attribute count are clamped against the remaining frame bytes
// before sizing any allocation — span blobs arrive from untrusted hosts.
func readSpans(b []byte) ([]trace.SpanRecord, []byte, error) {
	count, rest, err := readU16(b)
	if err != nil {
		return nil, nil, err
	}
	if count > len(rest)/spanRecMin {
		return nil, nil, fmt.Errorf("%w: span count %d exceeds what %d bytes can frame", ErrBadFrame, count, len(rest))
	}
	var recs []trace.SpanRecord
	if count > 0 {
		recs = make([]trace.SpanRecord, 0, count)
	}
	for i := 0; i < count; i++ {
		var r trace.SpanRecord
		if r.Span, rest, err = readU64(rest); err != nil {
			return nil, nil, err
		}
		if r.Parent, rest, err = readU64(rest); err != nil {
			return nil, nil, err
		}
		var name, site []byte
		if name, rest, err = readBytes16(rest); err != nil {
			return nil, nil, err
		}
		if site, rest, err = readBytes16(rest); err != nil {
			return nil, nil, err
		}
		r.Name, r.Site = string(name), string(site)
		var start, dur uint64
		if start, rest, err = readU64(rest); err != nil {
			return nil, nil, err
		}
		if dur, rest, err = readU64(rest); err != nil {
			return nil, nil, err
		}
		r.Start, r.Duration = time.Duration(start), time.Duration(dur)
		var msg []byte
		if msg, rest, err = readBytes16(rest); err != nil {
			return nil, nil, err
		}
		r.Err = string(msg)
		var nattrs int
		if nattrs, rest, err = readU16(rest); err != nil {
			return nil, nil, err
		}
		if nattrs > len(rest)/attrMin {
			return nil, nil, fmt.Errorf("%w: attr count %d exceeds what %d bytes can frame", ErrBadFrame, nattrs, len(rest))
		}
		if nattrs > 0 {
			r.Attrs = make([]trace.SpanAttr, 0, nattrs)
		}
		for j := 0; j < nattrs; j++ {
			var k, v []byte
			if k, rest, err = readBytes16(rest); err != nil {
				return nil, nil, err
			}
			if v, rest, err = readBytes16(rest); err != nil {
				return nil, nil, err
			}
			r.Attrs = append(r.Attrs, trace.SpanAttr{Key: string(k), Value: string(v)})
		}
		recs = append(recs, r)
	}
	return recs, rest, nil
}

// --- challenge --------------------------------------------------------------

func encodeChallenge(nonce tpm.Digest, tc traceCtx) []byte {
	return appendTraceCtx(append([]byte{kindChallenge}, nonce[:]...), tc)
}

func decodeChallenge(b []byte) (tpm.Digest, traceCtx, error) {
	nonce, rest, err := readDigest(b)
	if err != nil {
		return nonce, traceCtx{}, err
	}
	tc, rest, err := readTraceCtx(rest)
	if err != nil {
		return nonce, tc, err
	}
	if len(rest) != 0 {
		return nonce, tc, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return nonce, tc, nil
}

// appendChallengeResp encodes an admission reply into caller-owned scratch.
func appendChallengeResp(b []byte, r *challengeResp) []byte {
	b = append(b, kindChallengeResp)
	b = appendU32(b, len(r.PALs))
	for _, p := range r.PALs {
		b = appendBytes16(b, []byte(p.Name))
		b = append(b, p.Launch[:]...)
	}
	b = appendBytes16(b, r.Output)
	b = binary.BigEndian.AppendUint32(b, r.SLBBase)
	b = append(b, r.Att.Nonce[:]...)
	b = append(b, r.Att.Composite[:]...)
	b = appendBytes16(b, r.Att.Signature)
	cert := r.Att.Cert
	if cert == nil {
		cert = &attest.AIKCert{}
	}
	b = appendBytes16(b, []byte(cert.PlatformID))
	b = appendBytes16(b, cert.AIKPub)
	b = appendBytes16(b, cert.Signature)
	return appendSpans(b, r.Spans)
}

// palEntryMin is the smallest possible inventory entry: empty name (2-byte
// length) plus a 20-byte digest. It bounds how many entries a frame of a
// given size could possibly carry.
const palEntryMin = 2 + 20

func decodeChallengeResp(b []byte) (*challengeResp, error) {
	count, rest, err := readU32(b)
	if err != nil {
		return nil, err
	}
	// Clamp the forged-count hazard: a 32-bit count word may not demand
	// more entries than the remaining bytes could frame.
	n := int(count)
	if n > len(rest)/palEntryMin {
		return nil, fmt.Errorf("%w: PAL count %d exceeds what %d bytes can frame", ErrBadFrame, count, len(rest))
	}
	r := &challengeResp{PALs: make([]hostPAL, 0, n)}
	for i := 0; i < n; i++ {
		var name []byte
		if name, rest, err = readBytes16(rest); err != nil {
			return nil, err
		}
		var launch tpm.Digest
		if launch, rest, err = readDigest(rest); err != nil {
			return nil, err
		}
		r.PALs = append(r.PALs, hostPAL{Name: string(name), Launch: launch})
	}
	if r.Output, rest, err = readBytes16(rest); err != nil {
		return nil, err
	}
	if r.SLBBase, rest, err = readU32(rest); err != nil {
		return nil, err
	}
	if r.Att.Nonce, rest, err = readDigest(rest); err != nil {
		return nil, err
	}
	if r.Att.Composite, rest, err = readDigest(rest); err != nil {
		return nil, err
	}
	if r.Att.Signature, rest, err = readBytes16(rest); err != nil {
		return nil, err
	}
	cert := &attest.AIKCert{}
	var id []byte
	if id, rest, err = readBytes16(rest); err != nil {
		return nil, err
	}
	cert.PlatformID = string(id)
	if cert.AIKPub, rest, err = readBytes16(rest); err != nil {
		return nil, err
	}
	if cert.Signature, rest, err = readBytes16(rest); err != nil {
		return nil, err
	}
	if r.Spans, rest, err = readSpans(rest); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	r.Att.Cert = cert
	return r, nil
}

// --- run frames -------------------------------------------------------------

// maxPooledBytes and maxPooledMembers bound what pooled frame scratch may
// keep: scratch that has grown past either (a huge span blob, a forged
// member count) is dropped rather than pinned in its pool.
const (
	maxPooledBytes   = 1 << 20
	maxPooledMembers = 1 << 10
)

// appendRunBatch encodes a runBatch frame into caller-owned scratch.
func appendRunBatch(b []byte, r *runBatchReq) []byte {
	b = append(b, kindRunBatch)
	b = binary.BigEndian.AppendUint64(b, r.Frame)
	b = appendBytes16(b, r.PAL)
	b = appendTraceCtx(b, r.Trace)
	b = appendU16(b, len(r.Members))
	for i := range r.Members {
		b = appendBytes32(b, r.Members[i].Input)
		b = appendTraceCtx(b, r.Members[i].Trace)
	}
	return b
}

// batchMemberMin is the smallest encoded request member: a u32 input length
// (empty input) plus the fixed 16-byte trace pair. It bounds the
// forged-count clamp in decodeRunBatch.
const batchMemberMin = 4 + 16

// decodeRunBatchInto decodes a runBatch frame into r, reusing r's member
// slice. The PAL name and member inputs alias the frame (zero-copy): the
// host copies inputs into the session input page anyway, so decoding into
// warm scratch allocates nothing. r is only meaningful when the error is
// nil.
func decodeRunBatchInto(b []byte, r *runBatchReq) error {
	var err error
	if r.Frame, b, err = readU64(b); err != nil {
		return err
	}
	if r.PAL, b, err = readBytes16(b); err != nil {
		return err
	}
	if r.Trace, b, err = readTraceCtx(b); err != nil {
		return err
	}
	var count int
	if count, b, err = readU16(b); err != nil {
		return err
	}
	// Forged-count clamp: a count word may not demand more members than the
	// remaining bytes could frame.
	if count > len(b)/batchMemberMin {
		return fmt.Errorf("%w: batch count %d exceeds what %d bytes can frame", ErrBadFrame, count, len(b))
	}
	r.Members = slices.Grow(r.Members[:0], count)
	for i := 0; i < count; i++ {
		var m runBatchMember
		if m.Input, b, err = readBytes32(b); err != nil {
			return err
		}
		if m.Trace, b, err = readTraceCtx(b); err != nil {
			return err
		}
		r.Members = append(r.Members, m)
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b))
	}
	return nil
}

// appendRunBatchResp encodes a frame's outcomes into caller-owned scratch.
func appendRunBatchResp(b []byte, r *runBatchResp) []byte {
	b = append(b, kindRunBatchResp)
	b = binary.BigEndian.AppendUint64(b, r.Frame)
	b = appendU16(b, len(r.Members))
	for i := range r.Members {
		m := &r.Members[i]
		b = append(b, m.Status)
		b = appendBytes32(b, m.Output)
		b = appendBytes16(b, []byte(m.Err))
		b = appendSpans(b, m.Spans)
	}
	return appendSpans(b, r.Spans)
}

// runBatchRespSize is the exact length appendRunBatchResp writes for r, so a
// host grows a caller's reply buffer at most once.
func runBatchRespSize(r *runBatchResp) int {
	n := 1 + 8 + 2 + spansSize(r.Spans)
	for i := range r.Members {
		m := &r.Members[i]
		n += 1 + 4 + len(m.Output) + 2 + len(m.Err) + spansSize(m.Spans)
	}
	return n
}

// batchRespMemberMin is the smallest encoded member response: status byte,
// empty u32 output, empty u16 error, zero u16 span count.
const batchRespMemberMin = 1 + 4 + 2 + 2

// decodeRunBatchRespInto decodes a frame's outcomes into r, reusing r's
// member slice. Member outputs alias the reply buffer (zero-copy): the
// controller copies exactly the outputs it delivers before recycling the
// buffer. Span blobs and error strings are fresh, and a zero span count
// leaves Spans nil, so nothing from an earlier decode survives in r. r is
// only meaningful when the error is nil.
func decodeRunBatchRespInto(b []byte, r *runBatchResp) error {
	var err error
	if r.Frame, b, err = readU64(b); err != nil {
		return err
	}
	var count int
	if count, b, err = readU16(b); err != nil {
		return err
	}
	// Same forged-count clamp as the request side — responses arrive from
	// untrusted hosts.
	if count > len(b)/batchRespMemberMin {
		return fmt.Errorf("%w: batch count %d exceeds what %d bytes can frame", ErrBadFrame, count, len(b))
	}
	r.Members = slices.Grow(r.Members[:0], count)
	for i := 0; i < count; i++ {
		var m runBatchMemberResp
		if len(b) < 1 {
			return fmt.Errorf("%w: missing member status", ErrBadFrame)
		}
		m.Status, b = b[0], b[1:]
		if m.Output, b, err = readBytes32(b); err != nil {
			return err
		}
		var msg []byte
		if msg, b, err = readBytes16(b); err != nil {
			return err
		}
		m.Err = string(msg)
		if m.Spans, b, err = readSpans(b); err != nil {
			return err
		}
		r.Members = append(r.Members, m)
	}
	if r.Spans, b, err = readSpans(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b))
	}
	return nil
}

// --- heartbeat and drain ----------------------------------------------------

// encodeEmpty encodes a frame that is its kind alone: the heartbeat and
// drain requests and their replies.
func encodeEmpty(kind byte) []byte { return []byte{kind} }

// --- error frames -----------------------------------------------------------

func appendErrorResp(b []byte, msg string) []byte {
	return appendBytes16(append(b, kindError), []byte(msg))
}

// decodeResp strips and validates the response kind byte, converting
// kindError frames into Go errors.
func decodeResp(b []byte, want byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrBadFrame)
	}
	if b[0] == kindError {
		msg, _, err := readBytes16(b[1:])
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("fabric: remote error: %s", msg)
	}
	if b[0] != want {
		return nil, fmt.Errorf("%w: response kind %d, want %d", ErrBadFrame, b[0], want)
	}
	return b[1:], nil
}
