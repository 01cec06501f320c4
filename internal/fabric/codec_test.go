package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"flicker/internal/attest"
	"flicker/internal/tpm"
	"flicker/internal/trace"
)

func TestCodecChallengeRoundTrip(t *testing.T) {
	var nonce tpm.Digest
	for i := range nonce {
		nonce[i] = byte(i)
	}
	tc := traceCtx{TraceID: 0xABCD000000000001, Parent: 0xABCD000000000002}
	got, gotTC, err := decodeChallenge(encodeChallenge(nonce, tc)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got != nonce {
		t.Fatalf("nonce round trip = %x", got)
	}
	if gotTC != tc {
		t.Fatalf("trace ctx round trip = %+v", gotTC)
	}
	if _, _, err := decodeChallenge(nonce[:10]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated challenge = %v", err)
	}
	// A frame carrying the nonce but a truncated trace context is rejected.
	if _, _, err := decodeChallenge(encodeChallenge(nonce, tc)[1:30]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated trace ctx = %v", err)
	}
}

func sampleChallengeResp() *challengeResp {
	r := &challengeResp{
		PALs: []hostPAL{
			{Name: "echo", Launch: tpm.Digest{1, 2, 3}},
			{Name: AdmissionPALName, Launch: tpm.Digest{4, 5}},
		},
		Output: []byte("fabric-admitted:xyz"),
		Att: attest.Attestation{
			Nonce:     tpm.Digest{9},
			Composite: tpm.Digest{8},
			Signature: []byte("sig-bytes"),
			Cert: &attest.AIKCert{
				PlatformID: "host0",
				AIKPub:     []byte("pub-bytes"),
				Signature:  []byte("ca-sig"),
			},
		},
	}
	return r
}

func TestCodecChallengeRespRoundTrip(t *testing.T) {
	want := sampleChallengeResp()
	raw := appendChallengeResp(nil, want)
	body, err := decodeResp(raw, kindChallengeResp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeChallengeResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PALs) != 2 || got.PALs[0] != want.PALs[0] || got.PALs[1] != want.PALs[1] {
		t.Fatalf("inventory round trip = %+v", got.PALs)
	}
	if string(got.Output) != string(want.Output) {
		t.Fatalf("output = %q", got.Output)
	}
	if got.Att.Nonce != want.Att.Nonce || got.Att.Composite != want.Att.Composite {
		t.Fatal("attestation digests mangled")
	}
	if got.Att.Cert.PlatformID != "host0" || string(got.Att.Cert.AIKPub) != "pub-bytes" {
		t.Fatalf("cert round trip = %+v", got.Att.Cert)
	}
}

// A forged 32-bit PAL count may not drive the inventory allocation: the
// count is clamped against what the remaining bytes could possibly frame.
func TestCodecForgedPALCountRejected(t *testing.T) {
	raw := appendChallengeResp(nil, sampleChallengeResp())
	body := append([]byte(nil), raw[1:]...)
	binary.BigEndian.PutUint32(body[:4], 0xFFFFFFFF)
	_, err := decodeChallengeResp(body)
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "PAL count") {
		t.Fatalf("forged count decode = %v, want clamp rejection", err)
	}
}

// decodeRunBatch and decodeRunBatchResp decode into fresh structs: the
// reference the reused-scratch decoders are held to.
func decodeRunBatch(b []byte) (*runBatchReq, error) {
	r := &runBatchReq{}
	if err := decodeRunBatchInto(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

func decodeRunBatchResp(b []byte) (*runBatchResp, error) {
	r := &runBatchResp{}
	if err := decodeRunBatchRespInto(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

// singletonFrame is a one-member run frame, the singleton session's wire
// form.
func singletonFrame(palName string, input []byte) []byte {
	return appendRunBatch(nil, &runBatchReq{PAL: []byte(palName), Members: []runBatchMember{{Input: input}}})
}

// A forged field length may not slice past the frame.
func TestCodecForgedFieldLengthRejected(t *testing.T) {
	raw := singletonFrame("echo", []byte("abc"))
	body := append([]byte(nil), raw[1:]...)
	binary.BigEndian.PutUint16(body[8:10], 0xFFFF) // PAL-name length, after frame(8)
	if _, err := decodeRunBatch(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("forged name length = %v", err)
	}
	body = append([]byte(nil), raw[1:]...)
	// Input length: after frame(8) + name(2+4) + traceCtx(16) + count(2).
	binary.BigEndian.PutUint32(body[32:36], 0xFFFFFFF0)
	if _, err := decodeRunBatch(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("forged input length = %v", err)
	}
}

func TestCodecRunRoundTripAndTrailing(t *testing.T) {
	rr, err := decodeRunBatch(singletonFrame("p", []byte("in"))[1:])
	if err != nil || string(rr.PAL) != "p" || len(rr.Members) != 1 || string(rr.Members[0].Input) != "in" {
		t.Fatalf("run round trip = %+v, %v", rr, err)
	}
	raw := append(singletonFrame("p", nil)[1:], 0xEE)
	if _, err := decodeRunBatch(raw); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes = %v", err)
	}
	one := &runBatchResp{Members: []runBatchMemberResp{{Status: runOK, Output: []byte("o"), Err: "e"}}}
	resp, err := decodeRunBatchResp(appendRunBatchResp(nil, one)[1:])
	if err != nil || len(resp.Members) != 1 {
		t.Fatalf("run resp round trip = %+v, %v", resp, err)
	}
	if mr := resp.Members[0]; mr.Status != runOK || string(mr.Output) != "o" || mr.Err != "e" || mr.Spans != nil {
		t.Fatalf("run resp member = %+v", mr)
	}
}

func sampleSpans() []trace.SpanRecord {
	return []trace.SpanRecord{
		{Span: 0x1000000000000001, Parent: 0, Name: "host.run", Site: "host0",
			Start: 5 * time.Millisecond, Duration: 40 * time.Millisecond,
			Attrs: []trace.SpanAttr{{Key: "pal", Value: "echo"}, {Key: "host", Value: "host0"}}},
		{Span: 0x1000000000000002, Parent: 0x1000000000000001, Name: "session", Site: "host0",
			Start: 6 * time.Millisecond, Duration: 38 * time.Millisecond, Err: "boom"},
	}
}

func TestCodecSpanRecordsRoundTrip(t *testing.T) {
	want := sampleSpans()
	one := &runBatchResp{Members: []runBatchMemberResp{{Status: runOK, Spans: want}}}
	resp, err := decodeRunBatchResp(appendRunBatchResp(nil, one)[1:])
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Members[0].Spans
	if len(got) != len(want) {
		t.Fatalf("span count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Span != w.Span || g.Parent != w.Parent || g.Name != w.Name ||
			g.Site != w.Site || g.Start != w.Start || g.Duration != w.Duration || g.Err != w.Err {
			t.Fatalf("span %d round trip = %+v, want %+v", i, g, w)
		}
		if len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("span %d attrs = %+v", i, g.Attrs)
		}
		for j := range w.Attrs {
			if g.Attrs[j] != w.Attrs[j] {
				t.Fatalf("span %d attr %d = %+v", i, j, g.Attrs[j])
			}
		}
	}
	// The challenge response carries the same blob.
	cr := sampleChallengeResp()
	cr.Spans = sampleSpans()
	ch, err := decodeChallengeResp(appendChallengeResp(nil, cr)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Spans) != 2 || ch.Spans[1].Err != "boom" {
		t.Fatalf("challenge resp spans = %+v", ch.Spans)
	}
}

// A forged span count may not size the record allocation, and a forged
// attribute count may not size an attribute slice: both are clamped against
// the remaining frame bytes. Span blobs arrive from untrusted hosts.
func TestCodecForgedSpanCountsRejected(t *testing.T) {
	one := &runBatchResp{Members: []runBatchMemberResp{{Status: runOK, Spans: sampleSpans()}}}
	raw := appendRunBatchResp(nil, one)[1:]
	// The member's span count sits after frame(8) + count(2) + status(1) +
	// output len(4) + err len(2).
	body := append([]byte(nil), raw...)
	binary.BigEndian.PutUint16(body[17:19], 0xFFFF)
	if _, err := decodeRunBatchResp(body); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "span count") {
		t.Fatalf("forged span count = %v, want clamp rejection", err)
	}
	// Attr count of the first record sits after the fixed span header plus
	// its name, site, and error fields.
	body = append([]byte(nil), raw...)
	off := 19 + 8 + 8 + 2 + len("host.run") + 2 + len("host0") + 8 + 8 + 2
	binary.BigEndian.PutUint16(body[off:off+2], 0xFFFF)
	if _, err := decodeRunBatchResp(body); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "attr count") {
		t.Fatalf("forged attr count = %v, want clamp rejection", err)
	}
}

// Retired frame kinds stay reserved: a host answers the old singleton run
// pair (3, 4) and the old stats pair (9, 10) with kindError, never with a
// reply a stale controller could misread; kindError (11) is never a request
// either. The live kinds keep their wire numbers.
func TestHostRejectsRetiredKinds(t *testing.T) {
	if kindHeartbeat != 5 || kindDrainResp != 8 || kindError != 11 || kindRunBatch != 12 || kindRunBatchResp != 13 {
		t.Fatal("frame kinds renumbered")
	}
	r := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	for _, kind := range []byte{3, 4, 9, 10, kindError} {
		raw := r.hosts[0].handle(nil, []byte{kind})
		if raw[0] != kindError {
			t.Fatalf("kind %d answered with kind %d, want kindError", kind, raw[0])
		}
		if _, err := decodeResp(raw, kindHeartbeatResp); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("kind %d reply = %v, want an unknown-kind error", kind, err)
		}
	}
}

func TestCodecErrorFrames(t *testing.T) {
	if _, err := decodeResp(appendErrorResp(nil, "boom"), kindRunBatchResp); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error frame = %v", err)
	}
	if _, err := decodeResp([]byte{kindHeartbeatResp}, kindRunBatchResp); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("wrong kind = %v", err)
	}
	if _, err := decodeResp(nil, kindRunBatchResp); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty resp = %v", err)
	}
}

// allocatedBy returns the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzFabricControlFrames feeds arbitrary bytes to the control-frame
// decoders a controller or host runs on a peer's untrusted bytes:
// decodeChallenge (host side), decodeChallengeResp (controller side), and
// decodeResp, which every reply passes first. It
// checks that nothing panics; that the decoders, failing or not, allocate
// within a bound linear in the frame's length (the densest legal frame
// decodes to ~10 bytes of structs and strings per frame byte), so a forged
// count cannot drive an allocation, and that no decoded slice has more
// slots than the frame can encode; and that encode∘decode round-trips: a
// decoded challenge or admission reply re-encodes to the same bytes, and
// an error frame's message to an error frame with the same message.
func FuzzFabricControlFrames(f *testing.F) {
	cr := sampleChallengeResp()
	cr.Spans = sampleSpans()
	for _, frame := range [][]byte{
		encodeChallenge(tpm.Digest{1, 2, 3}, traceCtx{TraceID: 7, Parent: 8}),
		appendChallengeResp(nil, sampleChallengeResp()),
		appendChallengeResp(nil, cr),
		encodeEmpty(kindHeartbeatResp),
		appendErrorResp(nil, "boom"),
		encodeEmpty(kindDrainResp),
	} {
		f.Add(frame)     // a whole reply, as decodeResp sees it
		f.Add(frame[1:]) // its body, as the kind's decoder sees it
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocatedBy(func() {
			decodeChallenge(data)
			decodeChallengeResp(data)
			decodeResp(data, kindChallengeResp)
		}); n > 16*uint64(len(data))+1<<14 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		if nonce, tc, err := decodeChallenge(data); err == nil {
			if enc := encodeChallenge(nonce, tc); !bytes.Equal(enc[1:], data) {
				t.Fatalf("challenge re-encodes to %x, want %x", enc[1:], data)
			}
		}

		if r, err := decodeChallengeResp(data); err == nil {
			if cap(r.PALs)*palEntryMin > len(data) || cap(r.Spans)*spanRecMin > len(data) {
				t.Fatalf("%d-byte admission reply sized %d PAL and %d span slots", len(data), cap(r.PALs), cap(r.Spans))
			}
			for i, s := range r.Spans {
				if cap(s.Attrs)*attrMin > len(data) {
					t.Fatalf("%d-byte admission reply sized %d attribute slots for span %d", len(data), cap(s.Attrs), i)
				}
			}
			if enc := appendChallengeResp(nil, r); !bytes.Equal(enc[1:], data) {
				t.Fatalf("admission reply re-encodes to %x, want %x", enc[1:], data)
			}
		}

		for _, want := range []byte{kindChallengeResp, kindHeartbeatResp, kindDrainResp, kindRunBatchResp} {
			body, err := decodeResp(data, want)
			switch {
			case len(data) == 0 || (data[0] != kindError && data[0] != want):
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("reply %x read as kind %d: %v, want ErrBadFrame", data, want, err)
				}
			case data[0] == want:
				if err != nil || !bytes.Equal(body, data[1:]) {
					t.Fatalf("reply of kind %d: body %x, %v; want %x", want, body, err, data[1:])
				}
			default:
				msg, _, merr := readBytes16(data[1:])
				if merr != nil {
					if !errors.Is(err, ErrBadFrame) {
						t.Fatalf("truncated error frame: %v, want ErrBadFrame", err)
					}
					break
				}
				_, again := decodeResp(appendErrorResp(nil, string(msg)), want)
				if err == nil || errors.Is(err, ErrBadFrame) || again == nil || again.Error() != err.Error() {
					t.Fatalf("error frame %q: %v, re-encoded %v", msg, err, again)
				}
			}
		}
	})
}
