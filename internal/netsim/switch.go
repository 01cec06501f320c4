package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flicker/internal/metrics"
	"flicker/internal/simtime"
)

// ErrUnreachable is returned by Port.Call when the destination port does
// not exist or has been closed (a crashed or killed host).
var ErrUnreachable = errors.New("netsim: port unreachable")

// ErrNoHandler is returned by Port.Call when the destination exists but
// has no request handler installed.
var ErrNoHandler = errors.New("netsim: destination has no handler")

// Switch is a multi-endpoint network segment: N named ports exchange
// request/response frames over one shared simulated medium. It is the
// fabric's network — a controller port and one port per host agent — and
// generalizes Link from a fixed pair to a mesh: every call charges the
// same RTT/2-per-leg plus per-byte serialization model, and the switch
// accounts aggregate traffic exactly as a Link does.
//
// A Switch is safe for concurrent calls from any number of goroutines;
// handlers run on the calling goroutine (the simulation's stand-in for the
// remote end's service thread), so a slow handler occupies only its
// caller.
type Switch struct {
	clock   *simtime.Clock
	rtt     time.Duration
	perByte time.Duration

	mu    sync.Mutex
	ports map[string]*Port
	stats LinkStats

	metRoundTrips *metrics.Counter
	metBytes      map[string]*metrics.Counter
	metWire       *metrics.Counter
}

// NewSwitch creates a switch on the given clock with a uniform port-to-port
// RTT and optional per-byte cost.
func NewSwitch(clock *simtime.Clock, rtt, perByte time.Duration) *Switch {
	sw := &Switch{clock: clock, rtt: rtt, perByte: perByte, ports: make(map[string]*Port)}
	sw.Instrument(nil, "")
	return sw
}

// Clock returns the simulated clock the switch charges wire time to.
func (sw *Switch) Clock() *simtime.Clock { return sw.clock }

// Instrument folds the switch's traffic accounting into a registry under
// the given name, using the same metric families as Link (the switch is
// one "link" label).
func (sw *Switch) Instrument(reg *metrics.Registry, name string) {
	if name == "" {
		name = "switch"
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.metRoundTrips = reg.Counter("flicker_net_roundtrips_total",
		"Completed request/response exchanges per link.", "link").With(name).Cell()
	bytes := reg.Counter("flicker_net_bytes_total",
		"Payload bytes carried per link and direction.", "link", "direction")
	sw.metBytes = map[string]*metrics.Counter{
		"sent":     bytes.With(name, "sent").Cell(),
		"received": bytes.With(name, "received").Cell(),
	}
	sw.metWire = reg.Counter("flicker_net_wire_seconds_total",
		"Simulated wire time charged per link.", "link").With(name).Cell()
}

// Stats returns a snapshot of the switch's cumulative traffic.
func (sw *Switch) Stats() LinkStats {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.stats
}

// Handler serves the requests addressed to a port. It appends its reply to
// dst and returns the extended slice, as tis.Handler.AppendResponse does, so
// the reply lands directly in the caller's buffer (CallAppend's buf). The
// request slice is valid only until the handler returns: the switch zeroes
// and recycles it afterwards, so a handler that keeps request bytes must
// copy them, and a reply must never alias the request.
type Handler func(dst, req []byte) []byte

// Attach registers a named endpoint whose handler returns its reply as a
// slice of its own: the switch copies the reply out, so the handler may
// return the request slice itself. A nil handler may be installed later
// with SetHandler. See AttachHandler.
func (sw *Switch) Attach(name string, handler func(req []byte) []byte) (*Port, error) {
	var h Handler
	if handler != nil {
		h = func(dst, req []byte) []byte { return append(dst, handler(req)...) }
	}
	return sw.AttachHandler(name, h)
}

// AttachHandler registers a named endpoint and returns its port. The
// handler (may be nil and installed later with SetHandler) serves requests
// addressed to this port. Attaching a name that is already attached and
// open is an error; a closed port's name may be reused (a restarted host
// rejoining the network).
func (sw *Switch) AttachHandler(name string, handler Handler) (*Port, error) {
	if name == "" {
		return nil, errors.New("netsim: empty port name")
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if old, ok := sw.ports[name]; ok && !old.isClosed() {
		return nil, fmt.Errorf("netsim: port %q already attached", name)
	}
	p := &Port{sw: sw, name: name, handler: handler}
	sw.ports[name] = p
	return p, nil
}

// lookup resolves an open destination port.
func (sw *Switch) lookup(name string) (*Port, error) {
	sw.mu.Lock()
	p, ok := sw.ports[name]
	sw.mu.Unlock()
	if !ok || p.isClosed() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, name)
	}
	return p, nil
}

// charge accounts one direction of payload movement.
func (sw *Switch) charge(n int, direction string) {
	charged := sw.clock.Advance(sw.rtt/2+time.Duration(n)*sw.perByte, "net.send")
	sw.mu.Lock()
	if direction == "sent" {
		sw.stats.BytesSent += int64(n)
	} else {
		sw.stats.BytesReceived += int64(n)
	}
	sw.stats.WireTime += charged
	bytes, wire := sw.metBytes[direction], sw.metWire
	sw.mu.Unlock()
	bytes.Add(float64(n))
	wire.Add(metrics.Seconds(charged))
}

// Port is one endpoint on a switch.
type Port struct {
	sw   *Switch
	name string

	mu      sync.Mutex
	handler Handler
	closed  bool
}

// Name returns the port's address on the switch.
func (p *Port) Name() string { return p.name }

// SetHandler installs (or replaces) the request handler.
func (p *Port) SetHandler(h Handler) {
	p.mu.Lock()
	p.handler = h
	p.mu.Unlock()
}

// Close detaches the port: subsequent calls to or from it fail with
// ErrUnreachable. Closing models a host crash — calls already executing
// complete (the work ran remotely), but no new frame reaches the port.
func (p *Port) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

func (p *Port) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Call performs one request/response exchange with the named destination:
// request out, destination handler runs, response back. Both legs charge
// wire time and are accounted from the caller's perspective (request =
// sent, response = received). The handler sees a copy of request that is
// valid only while it runs (see Handler). The returned response is an
// owned frame; steady-state callers use CallAppend to reuse a reply buffer
// instead.
func (p *Port) Call(to string, request []byte) ([]byte, error) {
	return p.CallAppend(to, request, nil)
}

// reqCopies recycles the request copies CallAppend hands to handlers.
var reqCopies = sync.Pool{New: func() any { return new([]byte) }}

// CallAppend is Call with a caller-supplied reply buffer: the destination's
// handler appends its response to buf[:0] and the filled slice is returned,
// so a caller in a loop (the fabric's frame path) recycles one buffer across
// exchanges and the reply is never copied. A nil buf behaves exactly like
// Call. On error the contents of buf are unspecified. The request is copied
// before the handler runs, so the caller's request buffer is reusable as
// soon as CallAppend returns. The copy comes from a pool and is valid only
// while the handler runs: once the handler returns, the copy is zeroed and
// recycled.
func (p *Port) CallAppend(to string, request, buf []byte) ([]byte, error) {
	if p.isClosed() {
		return nil, fmt.Errorf("%w: %s (local port closed)", ErrUnreachable, p.name)
	}
	dst, err := p.sw.lookup(to)
	if err != nil {
		return nil, err
	}
	dst.mu.Lock()
	handler := dst.handler
	dst.mu.Unlock()
	if handler == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoHandler, to)
	}
	p.sw.charge(len(request), "sent")
	rb := reqCopies.Get().(*[]byte)
	req := append((*rb)[:0], request...)
	resp := handler(buf[:0], req)
	clear(req)
	if cap(req) <= 1<<20 {
		*rb = req[:0]
		reqCopies.Put(rb)
	}
	// A destination that died while serving cannot answer: the response
	// frame is lost on the floor, exactly what the controller's failover
	// path must tolerate.
	if dst.isClosed() {
		return nil, fmt.Errorf("%w: %s (died mid-call)", ErrUnreachable, to)
	}
	p.sw.charge(len(resp), "received")
	p.sw.mu.Lock()
	p.sw.stats.RoundTrips++
	rt := p.sw.metRoundTrips
	p.sw.mu.Unlock()
	rt.Inc()
	return resp, nil
}
