package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flicker/internal/pal"
	"flicker/internal/simtime"
	"flicker/internal/slb"
)

// echoPAL is deterministic per input, so batch replies can be compared
// byte-for-byte against singleton outputs.
func echoPAL() pal.PAL {
	return &pal.Func{
		PALName: "echo",
		Binary:  pal.DescriptorCode("echo", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return append([]byte("echo:"), input...), nil
		},
	}
}

// The acceptance check: a batched session's launch identity (the SKINIT
// measurement and PCR-17 after launch) and its per-request outputs are
// bit-identical to running the same requests as individual sessions. The
// large-PAL and two-stage cases pin that the batched launch builds its
// image from the PAL itself: its extra code and its stage-2 window extend.
func TestBatchMatchesSingletonSessions(t *testing.T) {
	reqs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd")}
	cases := []struct {
		name string
		pal  func(p *Platform) pal.PAL
		opts SessionOptions
		out  func(req []byte) string
	}{
		{"plain", func(*Platform) pal.PAL { return echoPAL() }, SessionOptions{}, nil},
		{"large", func(p *Platform) pal.PAL { return largePAL(p, nil) }, SessionOptions{},
			func([]byte) string { return "big ok" }},
		{"two-stage", func(*Platform) pal.PAL { return echoPAL() }, SessionOptions{TwoStage: true}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single := newPlatform(t)
			var wantOut [][]byte
			var wantPCR []string
			var wantMeas string
			for _, r := range reqs {
				opts := tc.opts
				opts.Input = r
				res, err := single.RunSession(tc.pal(single), opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.PALError != nil {
					t.Fatal(res.PALError)
				}
				if tc.out != nil && string(res.Outputs) != tc.out(r) {
					t.Fatalf("singleton output = %q, want %q", res.Outputs, tc.out(r))
				}
				wantOut = append(wantOut, res.Outputs)
				wantPCR = append(wantPCR, fmt.Sprintf("%x", res.PCR17AtLaunch))
				wantMeas = fmt.Sprintf("%x", res.Measurement)
			}

			batched := newPlatform(t)
			br, err := batched.RunSessionBatch(tc.pal(batched), Batch{Requests: reqs}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if br.Session.PALError != nil {
				t.Fatal(br.Session.PALError)
			}
			if br.Completed != len(reqs) {
				t.Fatalf("Completed = %d, want %d", br.Completed, len(reqs))
			}
			// One measurement for the whole group, identical to every
			// singleton's.
			if got := fmt.Sprintf("%x", br.Session.Measurement); got != wantMeas {
				t.Errorf("batch Measurement = %s, singleton = %s", got, wantMeas)
			}
			if got := fmt.Sprintf("%x", br.Session.PCR17AtLaunch); got != wantPCR[0] {
				t.Errorf("batch PCR17AtLaunch = %s, singleton = %s", got, wantPCR[0])
			}
			for i, p := range wantPCR {
				if p != wantPCR[0] {
					t.Fatalf("singleton %d PCR17AtLaunch differs — test assumption broken", i)
				}
			}
			// Per-request outputs bit-identical to the singleton sessions'.
			for i := range reqs {
				if br.Replies[i].Err != nil {
					t.Fatalf("reply %d: %v", i, br.Replies[i].Err)
				}
				if string(br.Replies[i].Output) != string(wantOut[i]) {
					t.Errorf("reply %d = %q, singleton output = %q", i, br.Replies[i].Output, wantOut[i])
				}
			}
			// The framed output page round-trips to the same replies (the
			// bytes the attestation's output digest covers are per-request
			// attributable).
			replies, trailer, err := DecodeBatchOutput(br.Session.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if len(trailer) != 0 {
				t.Errorf("trailer = %d bytes, want none", len(trailer))
			}
			for i := range reqs {
				if string(replies[i].Output) != string(wantOut[i]) {
					t.Errorf("decoded reply %d = %q, want %q", i, replies[i].Output, wantOut[i])
				}
			}
		})
	}
}

// The amortization claim itself, in simulated time: one batch of 8 must
// beat 8 singleton sessions by at least 3x (it is nearer 8x — the whole
// fixed cost is paid once).
func TestBatchAmortization(t *testing.T) {
	const n = 8
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = []byte{byte(i)}
	}

	single := newPlatform(t)
	var singletonTotal time.Duration
	for _, r := range reqs {
		res, err := single.RunSession(echoPAL(), SessionOptions{Input: r})
		if err != nil {
			t.Fatal(err)
		}
		singletonTotal += res.Duration()
	}

	batched := newPlatform(t)
	br, err := batched.RunSessionBatch(echoPAL(), Batch{Requests: reqs}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batchTotal := br.Session.Duration()
	if batchTotal <= 0 {
		t.Fatalf("batch duration = %v", batchTotal)
	}
	ratio := float64(singletonTotal) / float64(batchTotal)
	t.Logf("8 singletons: %v, 1 batch of 8: %v (%.1fx)", singletonTotal, batchTotal, ratio)
	if ratio < 3 {
		t.Fatalf("amortization ratio = %.2fx, want >= 3x", ratio)
	}
}

// An abort at request k must scrub the window, cap PCR 17, and report
// exactly the completed prefix.
func TestBatchAbortMidBatchPrefix(t *testing.T) {
	p := newPlatform(t)
	// Learn the (stable) SLB base from a clean session first.
	warm, err := p.RunSession(echoPAL(), SessionOptions{Input: []byte("warm")})
	if err != nil {
		t.Fatal(err)
	}
	base := warm.SLBBase
	boom := errors.New("killed at request 2")
	reqs := [][]byte{[]byte("0"), []byte("1"), []byte("2"), []byte("3"), []byte("4")}
	br, err := p.RunSessionBatch(echoPAL(), Batch{Requests: reqs}, SessionOptions{
		Injector: func(phase string) error {
			if phase == "request[2]" {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected abort", err)
	}
	if br == nil {
		t.Fatal("BatchResult is nil on abort; want the completed prefix")
	}
	if br.Completed != 2 || len(br.Replies) != 2 {
		t.Fatalf("Completed = %d (%d replies), want exactly the 2-request prefix", br.Completed, len(br.Replies))
	}
	for i, r := range br.Replies {
		if r.Err != nil || string(r.Output) != "echo:"+string(reqs[i]) {
			t.Errorf("prefix reply %d = (%q, %v)", i, r.Output, r.Err)
		}
	}
	// The abort teardown blanket-zeroed the SLB window and parameter pages.
	win, err := p.Machine.Mem.Read(base, slb.ParamAreaLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range win {
		if b != 0 {
			t.Fatalf("window byte %d = %#x after abort; want fully zeroed", i, b)
		}
	}
	// PCR 17 was capped: the platform still runs clean sessions afterwards,
	// with the same launch identity as ever.
	res, err := p.RunSession(echoPAL(), SessionOptions{Input: []byte("after")})
	if err != nil {
		t.Fatal(err)
	}
	if res.PALError != nil || string(res.Outputs) != "echo:after" {
		t.Fatalf("post-abort session = (%q, %v)", res.Outputs, res.PALError)
	}
	if n := p.Metrics.Snapshot().Sum("flicker_sessions_total", "aborted"); n != 1 {
		t.Fatalf("aborted sessions = %v, want 1", n)
	}
}

// A request-level PAL failure must not leak into its neighbors or abort
// the session.
func TestBatchRequestErrorsIsolated(t *testing.T) {
	p := newPlatform(t)
	picky := &pal.Func{
		PALName: "picky",
		Binary:  pal.DescriptorCode("picky", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			if string(input) == "bad" {
				return nil, errors.New("picky: refused")
			}
			return append([]byte("ok:"), input...), nil
		},
	}
	br, err := p.RunSessionBatch(picky, Batch{Requests: [][]byte{[]byte("x"), []byte("bad"), []byte("y")}}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if br.Session.PALError != nil {
		t.Fatalf("session PALError = %v; a request failure must stay request-level", br.Session.PALError)
	}
	if br.Replies[0].Err != nil || string(br.Replies[0].Output) != "ok:x" {
		t.Errorf("reply 0 = (%q, %v)", br.Replies[0].Output, br.Replies[0].Err)
	}
	if br.Replies[1].Err == nil || !strings.Contains(br.Replies[1].Err.Error(), "refused") {
		t.Errorf("reply 1 err = %v, want the PAL refusal", br.Replies[1].Err)
	}
	if br.Replies[2].Err != nil || string(br.Replies[2].Output) != "ok:y" {
		t.Errorf("reply 2 = (%q, %v)", br.Replies[2].Output, br.Replies[2].Err)
	}
}

// Observers see one span per request, and charges the PAL incurs during a
// request attribute to it.
func TestBatchPerRequestSpans(t *testing.T) {
	p := newPlatform(t)
	var spans int
	var charged time.Duration
	p.AddObserver(&funcObserver{
		phaseStart: func(phase string) {
			if phase == phaseRequest {
				spans++
			}
		},
		charge: func(phase string, c simtime.Charge) {
			if phase == phaseRequest {
				charged += c.Duration
			}
		},
	})
	worker := &pal.Func{
		PALName: "worker",
		Binary:  pal.DescriptorCode("worker", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			env.ChargeCPU(simtime.Charge{Duration: time.Millisecond, Label: "cpu.work"})
			return []byte("done"), nil
		},
	}
	reqs := [][]byte{{1}, {2}, {3}}
	br, err := p.RunSessionBatch(worker, Batch{Requests: reqs}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if spans != len(reqs) {
		t.Errorf("request spans = %d, want %d", spans, len(reqs))
	}
	if charged < 3*time.Millisecond {
		t.Errorf("charges attributed to request spans = %v, want >= 3ms", charged)
	}
	// The session timeline records the same spans.
	var inTimeline int
	for _, ph := range br.Session.Phases {
		if ph.Name == phaseRequest {
			inTimeline++
		}
	}
	if inTimeline != len(reqs) {
		t.Errorf("timeline request phases = %d, want %d", inTimeline, len(reqs))
	}
}

// funcObserver adapts closures to the Observer interface for tests.
type funcObserver struct {
	phaseStart func(phase string)
	charge     func(phase string, c simtime.Charge)
}

func (f *funcObserver) SessionStart(SessionMeta) {}
func (f *funcObserver) PhaseStart(_ uint64, phase string, _ time.Duration) {
	if f.phaseStart != nil {
		f.phaseStart(phase)
	}
}
func (f *funcObserver) Charge(_ uint64, phase string, c simtime.Charge) {
	if f.charge != nil {
		f.charge(phase, c)
	}
}
func (f *funcObserver) PhaseEnd(uint64, string, time.Duration, error) {}
func (f *funcObserver) SessionEnd(uint64, time.Duration, error)       {}

// The SLB Core's session timer fires mid-batch: the interrupted request
// reports the timeout, later requests never run, completed replies survive.
func TestBatchTimeoutStopsLoop(t *testing.T) {
	p := newPlatform(t)
	slow := &pal.Func{
		PALName: "slow",
		Binary:  pal.DescriptorCode("slow", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			env.ChargeCPU(simtime.Charge{Duration: 10 * time.Millisecond, Label: "cpu.slow"})
			return []byte("done"), nil
		},
	}
	reqs := [][]byte{{0}, {1}, {2}, {3}}
	br, err := p.RunSessionBatch(slow, Batch{Requests: reqs}, SessionOptions{MaxPALTime: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(br.Session.PALError, pal.ErrPALTimeout) {
		t.Fatalf("session PALError = %v, want ErrPALTimeout", br.Session.PALError)
	}
	if br.Completed >= len(reqs) || br.Completed == 0 {
		t.Fatalf("Completed = %d, want a strict prefix", br.Completed)
	}
	last := br.Replies[br.Completed-1]
	if !errors.Is(last.Err, pal.ErrPALTimeout) {
		t.Errorf("interrupted reply err = %v, want ErrPALTimeout", last.Err)
	}
	for _, r := range br.Replies[:br.Completed-1] {
		if r.Err != nil || string(r.Output) != "done" {
			t.Errorf("completed reply = (%q, %v)", r.Output, r.Err)
		}
	}
}

// A request that stages no output must produce an empty reply: the staged
// output register is cleared at each request boundary, so one request can
// never inherit (leak) the reply a previous request staged via SetOutput.
func TestBatchNoStaleStagedOutput(t *testing.T) {
	p := newPlatform(t)
	stager := &pal.Func{
		PALName: "stager",
		Binary:  pal.DescriptorCode("stager", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			if string(input) == "stage" {
				env.SetOutput([]byte("request-0-secret"))
			}
			return nil, nil // no direct return: the engine falls back to env.Output()
		},
	}
	br, err := p.RunSessionBatch(stager, Batch{Requests: [][]byte{[]byte("stage"), []byte("noop")}}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if br.Session.PALError != nil {
		t.Fatal(br.Session.PALError)
	}
	if string(br.Replies[0].Output) != "request-0-secret" {
		t.Errorf("reply 0 = %q, want the staged output", br.Replies[0].Output)
	}
	if br.Replies[1].Err != nil || len(br.Replies[1].Output) != 0 {
		t.Errorf("reply 1 = (%q, %v); request 0's staged output leaked across the request boundary",
			br.Replies[1].Output, br.Replies[1].Err)
	}
}

// Forged count words in the wire frames must be rejected by the truncation
// checks without the count driving a huge preallocation: both decoders see
// untrusted bytes (DecodeBatchOutput is the verifier side).
func TestBatchDecodeForgedCount(t *testing.T) {
	// Input frame: empty header, then a count claiming 2^32-1 requests.
	in := []byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := decodeBatchInput(in, nil); err == nil {
		t.Error("forged input count accepted")
	}
	// Output frame: a count claiming 2^32-1 replies and no payload.
	out := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := DecodeBatchOutput(out); err == nil {
		t.Error("forged output count accepted")
	}

	// In a session: an input page rewritten after init-slb to carry a
	// forged count aborts the session (it is not the PAL's failure), and
	// the abort teardown zeroes the window.
	p := newPlatform(t)
	warm, err := p.RunSession(echoPAL(), SessionOptions{Input: []byte("warm")})
	if err != nil {
		t.Fatal(err)
	}
	base := warm.SLBBase
	countAddr := base + uint32(slb.InputsOffset) + 4 + 4 // page length, header length
	br, err := p.RunSessionBatch(echoPAL(), Batch{Requests: [][]byte{[]byte("x")}}, SessionOptions{
		Injector: func(phase string) error {
			if phase != "pal-exec" {
				return nil
			}
			return p.Machine.Mem.Write(countAddr, []byte{0x00, 0x01, 0x00, 0x00})
		},
	})
	if err == nil || !strings.Contains(err.Error(), "core: batch input count 65536 exceeds its") || !strings.Contains(err.Error(), "-byte frame") {
		t.Fatalf("err = %v, want the forged-count abort", err)
	}
	if br == nil || br.Session != nil || br.Completed != 0 {
		t.Fatalf("BatchResult = %+v, want an aborted session with no completed request", br)
	}
	if n := p.Metrics.Snapshot().Sum("flicker_sessions_total", "aborted"); n != 1 {
		t.Fatalf("aborted sessions = %v, want 1", n)
	}
	win, err := p.Machine.Mem.Read(base, slb.ParamAreaLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range win {
		if b != 0 {
			t.Fatalf("window byte %d = %#x after abort; want fully zeroed", i, b)
		}
	}
}

// Input validation: empty batches and groups that overflow the input page
// are rejected before any session cost is paid.
func TestBatchInputValidation(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.RunSessionBatch(echoPAL(), Batch{}, SessionOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	big := make([]byte, slb.PageSize/2)
	_, err := p.RunSessionBatch(echoPAL(), Batch{Requests: [][]byte{big, big, big}}, SessionOptions{})
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized batch err = %v, want ErrBatchTooLarge", err)
	}
	if n := p.Metrics.Snapshot().Sum("flicker_sessions_total"); n != 0 {
		t.Errorf("rejected batches ran %v sessions", n)
	}
	// BatchInputFits agrees with the encoder.
	if !BatchInputFits(0, 10, 10) {
		t.Error("BatchInputFits rejects a tiny batch")
	}
	if BatchInputFits(0, len(big), len(big), len(big)) {
		t.Error("BatchInputFits accepts an overflowing batch")
	}
}

// A plain (non-BatchPAL) PAL must reject a batch header: it has no way to
// consume shared carried state, and silently dropping it would break the
// caller's sealed-state expectations.
func TestBatchHeaderRejectedForPlainPAL(t *testing.T) {
	p := newPlatform(t)
	br, err := p.RunSessionBatch(echoPAL(), Batch{Header: []byte("sealed"), Requests: [][]byte{{1}}}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if br.Session.PALError == nil || !strings.Contains(br.Session.PALError.Error(), "header") {
		t.Fatalf("PALError = %v, want a header rejection", br.Session.PALError)
	}
	if br.Completed != 0 {
		t.Fatalf("Completed = %d, want 0 (no request ran)", br.Completed)
	}
}

// lateClosePAL is a BatchPAL whose CloseBatch runs past the session timer
// after every request finished inside it.
type lateClosePAL struct{ pal.PAL }

func (*lateClosePAL) OpenBatch(*pal.Env, []byte, int) (any, error) { return nil, nil }

func (*lateClosePAL) RunRequest(_ *pal.Env, _ any, i int, _ []byte) ([]byte, error) {
	return fmt.Appendf(nil, "r%d", i), nil
}

func (*lateClosePAL) CloseBatch(env *pal.Env, _ any) ([]byte, error) {
	env.ChargeCPU(simtime.Charge{Duration: 50 * time.Millisecond, Label: "cpu.close"})
	return []byte("state"), nil
}

// BatchResult.Reply is the one rule for what a member gets back: its own
// reply, unless a batch-level PAL error reached it; a timeout reaches only
// the request it interrupted and those after it.
func TestBatchReplyRule(t *testing.T) {
	p := newPlatform(t)

	// The timer fires mid-batch.
	slow := &pal.Func{
		PALName: "slow",
		Binary:  pal.DescriptorCode("slow", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			env.ChargeCPU(simtime.Charge{Duration: 10 * time.Millisecond, Label: "cpu.slow"})
			return []byte("done"), nil
		},
	}
	reqs := [][]byte{{0}, {1}, {2}, {3}}
	br, err := p.RunSessionBatch(slow, Batch{Requests: reqs}, SessionOptions{MaxPALTime: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if br.Completed == 0 || br.Completed >= len(reqs) {
		t.Fatalf("Completed = %d, want a strict prefix", br.Completed)
	}
	for i := range reqs {
		r := br.Reply(i)
		if i < br.Completed-1 {
			if r.Err != nil || string(r.Output) != "done" {
				t.Errorf("completed request %d: Reply = (%q, %v)", i, r.Output, r.Err)
			}
		} else if !errors.Is(r.Err, pal.ErrPALTimeout) || r.Output != nil {
			t.Errorf("request %d at or past the interruption: Reply = (%q, %v), want the timeout", i, r.Output, r.Err)
		}
	}

	// The timer fires in CloseBatch, after every request finished: the
	// session reports the timeout, as a singleton PAL that finishes late
	// does, and no request was interrupted.
	late := &lateClosePAL{&pal.Func{PALName: "late-close", Binary: pal.DescriptorCode("late-close", "1.0", nil, nil)}}
	br, err = p.RunSessionBatch(late, Batch{Requests: reqs[:2]}, SessionOptions{MaxPALTime: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(br.Session.PALError, pal.ErrPALTimeout) || br.Session.Outputs != nil {
		t.Fatalf("session = (%q, %v), want the timeout and no published output", br.Session.Outputs, br.Session.PALError)
	}
	for i := range 2 {
		if r := br.Reply(i); r.Err != nil || string(r.Output) != fmt.Sprintf("r%d", i) {
			t.Errorf("request %d: Reply = (%q, %v), want its own reply", i, r.Output, r.Err)
		}
	}

	// Any other batch-level PAL error reaches every member.
	br, err = p.RunSessionBatch(echoPAL(), Batch{Header: []byte("h"), Requests: reqs[:2]}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if r := br.Reply(i); r.Err == nil || r.Err != br.Session.PALError {
			t.Errorf("request %d: Reply err = %v, want the session's PALError %v", i, r.Err, br.Session.PALError)
		}
	}
}

// The input page's framing bounds, to the byte: a group that frames to
// exactly PageSize-4 bytes fits and encodes, and one byte more is refused
// by both the coalescer's bound (BatchInputFits) and the encoder. A field
// whose untrusted length word claims more bytes than follow it is refused
// as a field overflow, without slicing past the frame.
func TestBatchInputFramingBoundaries(t *testing.T) {
	const limit = slb.PageSize - 4
	exact := limit - batchInputOverhead - 4 // one request, no header
	for _, c := range []struct {
		name   string
		header int
		reqs   []int
		fits   bool
	}{
		{"one request, exact", 0, []int{exact}, true},
		{"one request, one byte over", 0, []int{exact + 1}, false},
		{"header and two requests, exact", 10, []int{100, exact - 10 - 4 - 100}, true},
		{"header and two requests, one byte over", 10, []int{100, exact - 10 - 4 - 100 + 1}, false},
	} {
		reqs := make([][]byte, len(c.reqs))
		for i, n := range c.reqs {
			reqs[i] = make([]byte, n)
		}
		if got := BatchInputFits(c.header, c.reqs...); got != c.fits {
			t.Errorf("%s: BatchInputFits = %v, want %v", c.name, got, c.fits)
		}
		frame, err := appendBatchInput(nil, make([]byte, c.header), reqs)
		if !c.fits {
			if !errors.Is(err, ErrBatchTooLarge) || len(frame) != 0 {
				t.Errorf("%s: appendBatchInput = %d bytes, %v; want nothing and ErrBatchTooLarge", c.name, len(frame), err)
			}
			continue
		}
		if err != nil || len(frame) != limit {
			t.Errorf("%s: appendBatchInput = %d bytes, %v; want %d bytes", c.name, len(frame), err, limit)
			continue
		}
		header, got, err := decodeBatchInput(frame, nil)
		if err != nil || len(header) != c.header || len(got) != len(c.reqs) {
			t.Errorf("%s: decode of the exact frame = %d-byte header, %d requests, %v", c.name, len(header), len(got), err)
		}
	}

	decode := func(b []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		_, _, err = decodeBatchInput(b, nil)
		return err
	}
	word := func(b []byte, at int, n uint32) []byte {
		binary.BigEndian.PutUint32(b[at:], n)
		return b
	}
	// A 14-byte frame: a header word claiming len(b)-3 = 11 bytes when 10
	// follow it.
	if err := decode(word(make([]byte, 14), 0, 11)); err == nil || !strings.Contains(err.Error(), "field overflow") {
		t.Errorf("header word claiming len(b)-3 bytes: %v, want a field overflow", err)
	}
	// An empty header, a count of 1, then a request word claiming 3 bytes
	// more than follow it.
	req := word(word(make([]byte, 4+4+4+6), 4, 1), 8, 9)
	if err := decode(req); err == nil || !strings.Contains(err.Error(), "field overflow") {
		t.Errorf("request word claiming len(b)-3 bytes: %v, want a field overflow", err)
	}
	// A header word claiming exactly the bytes that follow it is no
	// overflow: the frame is short of its count word instead.
	if err := decode(word(make([]byte, 14), 0, 10)); err == nil || strings.Contains(err.Error(), "overflow") || strings.Contains(err.Error(), "panic") {
		t.Errorf("header word claiming len(b)-4 bytes: %v, want a truncated count", err)
	}
}

// The output page's overflow rule: a successful reply too large for the
// shared page is downgraded to a reply-level error while the other replies
// and the trailer still make it out, and a frame whose error strings alone
// overflow the page is refused with an error, not a panic.
func TestBatchOutputOverflow(t *testing.T) {
	trailer := []byte("carried state")
	replies := []pal.BatchReply{
		{Output: []byte("small")},
		{Output: make([]byte, slb.PageSize)},
		{Err: errors.New("refused")},
	}
	frame, err := appendBatchOutput(nil, replies, trailer)
	if err != nil {
		t.Fatal(err)
	}
	got, gotTrailer, err := DecodeBatchOutput(frame)
	if err != nil || len(got) != 3 || string(gotTrailer) != string(trailer) {
		t.Fatalf("decode = %d replies, trailer %q, %v; want 3 and %q", len(got), gotTrailer, err, trailer)
	}
	if string(got[0].Output) != "small" || got[0].Err != nil {
		t.Errorf("reply 0 = %q, %v; want it untouched", got[0].Output, got[0].Err)
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "overflows the shared output page") {
		t.Errorf("oversized reply = %v, want a reply-level overflow error", got[1].Err)
	}
	if got[2].Err == nil || got[2].Err.Error() != "refused" {
		t.Errorf("reply 2 = %v, want its own error", got[2].Err)
	}

	long := errors.New(strings.Repeat("x", slb.PageSize))
	frame, err = func() (b []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return appendBatchOutput(nil, []pal.BatchReply{{Output: []byte("ok")}, {Err: long}}, trailer)
	}()
	if err == nil || !strings.Contains(err.Error(), "exceeds the 4 KB output page") || len(frame) != 0 {
		t.Errorf("error strings overflowing the page = %d bytes, %v; want nothing and an overflow error", len(frame), err)
	}
}
