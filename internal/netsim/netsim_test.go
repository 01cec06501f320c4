package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flicker/internal/metrics"
	"flicker/internal/simtime"
)

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

func TestSendChargesHalfRTT(t *testing.T) {
	clock := simtime.New()
	l := NewLink(clock, 10*time.Millisecond, 0)
	out := l.Send([]byte("ping"))
	if !bytes.Equal(out, []byte("ping")) {
		t.Fatal("payload mangled")
	}
	if clock.Now() != 5*time.Millisecond {
		t.Fatalf("one-way send charged %v, want 5ms", clock.Now())
	}
}

func TestSendCopiesPayload(t *testing.T) {
	clock := simtime.New()
	l := NewLink(clock, time.Millisecond, 0)
	in := []byte("mutable")
	out := l.Send(in)
	in[0] = 'X'
	if out[0] == 'X' {
		t.Fatal("Send aliased the caller's buffer")
	}
}

func TestPerByteCost(t *testing.T) {
	clock := simtime.New()
	l := NewLink(clock, 0, time.Microsecond)
	l.Send(make([]byte, 1000))
	if clock.Now() != time.Millisecond {
		t.Fatalf("1000 bytes at 1us/B charged %v", clock.Now())
	}
}

func TestRoundTrip(t *testing.T) {
	clock := simtime.New()
	l := NewLink(clock, 8*time.Millisecond, 0)
	resp := l.RoundTrip([]byte("query"), func(req []byte) []byte {
		clock.Advance(2*time.Millisecond, "server.work")
		return append([]byte("re:"), req...)
	})
	if string(resp) != "re:query" {
		t.Fatalf("resp = %q", resp)
	}
	if clock.Now() != 10*time.Millisecond { // 4 out + 2 work + 4 back
		t.Fatalf("round trip consumed %v, want 10ms", clock.Now())
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	clock := simtime.New()
	l := NewLink(clock, 10*time.Millisecond, 0)
	l.RoundTrip([]byte("1234"), func(req []byte) []byte {
		return []byte("response!") // 9 bytes back
	})
	l.Send([]byte("xy"))
	st := l.Stats()
	if st.RoundTrips != 1 {
		t.Errorf("RoundTrips = %d, want 1", st.RoundTrips)
	}
	if st.BytesSent != 4+2 || st.BytesReceived != 9 {
		t.Errorf("bytes = %d sent / %d received, want 6 / 9", st.BytesSent, st.BytesReceived)
	}
	// Three one-way transfers at RTT/2 each.
	if st.WireTime != 15*time.Millisecond {
		t.Errorf("WireTime = %v, want 15ms", st.WireTime)
	}
}

func TestLinkMetricsRegistration(t *testing.T) {
	clock := simtime.New()
	l := NewLink(clock, 4*time.Millisecond, 0)
	reg := metrics.NewRegistry()
	l.Instrument(reg, "verifier")
	l.RoundTrip([]byte("abc"), func(req []byte) []byte { return req })

	rts := reg.Counter("flicker_net_roundtrips_total", "", "link")
	if got := rts.With("verifier").Value(); got != 1 {
		t.Errorf("roundtrips counter = %v, want 1", got)
	}
	bytesC := reg.Counter("flicker_net_bytes_total", "", "link", "direction")
	if got := bytesC.With("verifier", "sent").Value(); got != 3 {
		t.Errorf("sent bytes counter = %v, want 3", got)
	}
	if got := bytesC.With("verifier", "received").Value(); got != 3 {
		t.Errorf("received bytes counter = %v, want 3", got)
	}
	wire := reg.Counter("flicker_net_wire_seconds_total", "", "link")
	if got := wire.With("verifier").Value(); got != 0.004 {
		t.Errorf("wire seconds = %v, want 0.004", got)
	}
}

func TestPaperLink(t *testing.T) {
	clock := simtime.New()
	l := PaperLink(clock)
	l.Send(nil)
	l.Send(nil)
	// Full RTT after two one-way sends: the paper's 9.45 ms average ping.
	if got := simtime.Millis(clock.Now()); got < 9.44 || got > 9.46 {
		t.Fatalf("RTT = %.3f ms, want 9.45", got)
	}
}

// TestLinkConcurrentRoundTripsRace is the -race hammer for the fabric's
// usage pattern: many goroutines sharing one link. Counts must come out
// exact — the link serializes its accounting, not just avoids corruption.
func TestLinkConcurrentRoundTripsRace(t *testing.T) {
	clock := simtime.New()
	l := NewLink(clock, time.Millisecond, time.Microsecond)
	reg := metrics.NewRegistry()
	l.Instrument(reg, "hammer")
	const (
		workers = 8
		perW    = 100
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				resp := l.RoundTrip([]byte("rq"), func(req []byte) []byte {
					return append(req, []byte("-ok")...)
				})
				if string(resp) != "rq-ok" {
					t.Errorf("resp = %q", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.RoundTrips != workers*perW {
		t.Fatalf("RoundTrips = %d, want %d", st.RoundTrips, workers*perW)
	}
	if st.BytesSent != workers*perW*2 || st.BytesReceived != workers*perW*5 {
		t.Fatalf("bytes = %d/%d, want %d/%d",
			st.BytesSent, st.BytesReceived, workers*perW*2, workers*perW*5)
	}
}

func TestSwitchCallChargesBothLegs(t *testing.T) {
	clock := simtime.New()
	sw := NewSwitch(clock, 8*time.Millisecond, 0)
	a, err := sw.Attach("ctrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Attach("host-0", func(req []byte) []byte {
		clock.Advance(2*time.Millisecond, "host.work")
		return append([]byte("re:"), req...)
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := a.Call("host-0", []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:query" {
		t.Fatalf("resp = %q", resp)
	}
	if clock.Now() != 10*time.Millisecond { // 4 out + 2 work + 4 back
		t.Fatalf("call consumed %v, want 10ms", clock.Now())
	}
	st := sw.Stats()
	if st.RoundTrips != 1 || st.BytesSent != 5 || st.BytesReceived != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSwitchUnreachableAndReuse(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	a, err := sw.Attach("ctrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call("ghost", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to unattached port = %v, want ErrUnreachable", err)
	}
	h, err := sw.Attach("host-0", func(req []byte) []byte { return req })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Attach("host-0", nil); err == nil {
		t.Fatal("duplicate attach of an open port succeeded")
	}
	if _, err := a.Call("host-0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A crashed (closed) host is unreachable, and its name can be reused by
	// a restarted instance.
	h.Close()
	if _, err := a.Call("host-0", []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to closed port = %v, want ErrUnreachable", err)
	}
	if _, err := sw.Attach("host-0", func(req []byte) []byte { return []byte("v2") }); err != nil {
		t.Fatalf("reattach after close: %v", err)
	}
	resp, err := a.Call("host-0", nil)
	if err != nil || string(resp) != "v2" {
		t.Fatalf("restarted port call = %q, %v", resp, err)
	}
	// No handler installed: distinct error.
	if _, err := sw.Attach("mute", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call("mute", nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("call to handlerless port = %v, want ErrNoHandler", err)
	}
}

func TestSwitchDiedMidCall(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	a, _ := sw.Attach("ctrl", nil)
	var victim *Port
	victim, err := sw.Attach("host-0", func(req []byte) []byte {
		victim.Close() // the host dies while serving
		return []byte("lost reply")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call("host-0", []byte("rq")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("mid-call death = %v, want ErrUnreachable", err)
	}
}

// TestSwitchConcurrentCallsRace hammers one switch from many ports at once.
func TestSwitchConcurrentCallsRace(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	const hosts = 4
	for i := 0; i < hosts; i++ {
		if _, err := sw.Attach(fmt.Sprintf("host-%d", i), func(req []byte) []byte {
			return append([]byte("ok:"), req...)
		}); err != nil {
			t.Fatal(err)
		}
	}
	const (
		workers = 8
		perW    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		port, err := sw.Attach(fmt.Sprintf("caller-%d", w), nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p *Port, w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				resp, err := p.Call(fmt.Sprintf("host-%d", (w+i)%hosts), []byte("x"))
				if err != nil || string(resp) != "ok:x" {
					t.Errorf("call: %q, %v", resp, err)
					return
				}
			}
		}(port, w)
	}
	wg.Wait()
	if st := sw.Stats(); st.RoundTrips != workers*perW {
		t.Fatalf("RoundTrips = %d, want %d", st.RoundTrips, workers*perW)
	}
}

func TestSwitchCallAppendReusesBuffer(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	a, err := sw.Attach("ctrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Attach("host-0", func(req []byte) []byte {
		return append([]byte("re:"), req...)
	}); err != nil {
		t.Fatal(err)
	}

	// A buffer with spare capacity is reused in place: the reply lands in
	// the same backing array, sliced from zero.
	buf := make([]byte, 3, 64)
	resp, err := a.CallAppend("host-0", []byte("query"), buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:query" {
		t.Fatalf("resp = %q", resp)
	}
	if &resp[0] != &buf[:1][0] {
		t.Fatal("CallAppend allocated despite sufficient capacity")
	}

	// Nil buffer degenerates to Call: a freshly owned reply.
	resp, err = a.CallAppend("host-0", []byte("q2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:q2" {
		t.Fatalf("nil-buf reply = %q", resp)
	}

	// The reply is a copy, never an alias of the handler's return value:
	// mutating the caller's view does not reach the remote side.
	handlerOwned := []byte("stable")
	if _, err := sw.Attach("host-1", func([]byte) []byte { return handlerOwned }); err != nil {
		t.Fatal(err)
	}
	resp, err = a.CallAppend("host-1", nil, make([]byte, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	resp[0] = 'X'
	if handlerOwned[0] == 'X' {
		t.Fatal("CallAppend aliased the handler's buffer across the simulated wire")
	}
}

// A handler's request slice is valid only while the handler runs: the
// switch zeroes and recycles its copy once the reply is out, so a handler
// that keeps req (instead of copying it) reads zeros afterwards.
func TestSwitchRequestValidOnlyDuringHandler(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	a, err := sw.Attach("ctrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept []byte
	if _, err := sw.Attach("host-0", func(req []byte) []byte {
		kept = req
		return append([]byte("re:"), req...)
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := a.Call("host-0", []byte("secret"))
	if err != nil || string(resp) != "re:secret" {
		t.Fatalf("call = %q, %v", resp, err)
	}
	if !bytes.Equal(kept, make([]byte, len("secret"))) {
		t.Fatalf("request kept past its handler reads %q, want zeros", kept)
	}
}

// A handler may return req itself (an echo): the reply is copied out before
// the request copy is recycled, so every caller gets its own bytes back.
func TestSwitchEchoHandlerReturnsRequest(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	a, err := sw.Attach("ctrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Attach("echo", func(req []byte) []byte { return req }); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 0, 64)
	for _, in := range []string{"first frame", "second", "a third, longer frame"} {
		reply, err = a.CallAppend("echo", []byte(in), reply)
		if err != nil || string(reply) != in {
			t.Fatalf("echo of %q = %q, %v", in, reply, err)
		}
	}
}

// CallAppend into a reply buffer that is already large enough allocates
// nothing: the request copy comes from a pool and the reply lands in buf.
func TestSwitchCallAppendAllocs(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	a, err := sw.Attach("ctrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Attach("echo", func(req []byte) []byte { return req }); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 512)
	reply := make([]byte, 0, 512)
	avg := testing.AllocsPerRun(200, func() {
		if reply, err = a.CallAppend("echo", frame, reply); err != nil {
			t.Fatal(err)
		}
	})
	// The race detector makes sync.Pool drop a quarter of what is put back,
	// so under -race the request copy is sometimes fresh.
	budget := 0.0
	if raceEnabled {
		budget = 1
	}
	if avg > budget {
		t.Fatalf("CallAppend into a sized buffer = %.2f allocs, budget %.0f", avg, budget)
	}
}

// An append-style handler writes its reply straight into the caller's
// buffer: CallAppend returns buf's own storage when it is large enough, a
// nil buffer gets an owned reply, and neither path allocates a copy.
func TestSwitchHandlerAppendsIntoCallerBuffer(t *testing.T) {
	sw := NewSwitch(simtime.New(), time.Millisecond, 0)
	a, err := sw.Attach("ctrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AttachHandler("re", func(dst, req []byte) []byte {
		return append(append(dst, "re:"...), req...)
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	reply, err := a.CallAppend("re", []byte("frame"), buf)
	if err != nil || string(reply) != "re:frame" {
		t.Fatalf("reply = %q, %v", reply, err)
	}
	if &reply[0] != &buf[:1][0] {
		t.Error("the reply did not land in the caller's buffer")
	}
	owned, err := a.Call("re", []byte("x"))
	if err != nil || string(owned) != "re:x" {
		t.Fatalf("Call reply = %q, %v", owned, err)
	}
	frame := make([]byte, 32)
	avg := testing.AllocsPerRun(200, func() {
		if reply, err = a.CallAppend("re", frame, reply); err != nil {
			t.Fatal(err)
		}
	})
	// Under -race, sync.Pool sometimes hands out a fresh request copy.
	budget := 0.0
	if raceEnabled {
		budget = 1
	}
	if avg > budget {
		t.Fatalf("CallAppend to an append handler = %.2f allocs, budget %.0f", avg, budget)
	}
}
