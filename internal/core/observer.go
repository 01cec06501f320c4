package core

// Structured observability for the session pipeline: an Observer receives
// the Figure 2 timeline as it unfolds (session and phase boundaries, plus
// every simulated-clock charge attributed to the phase that incurred it).
// internal/trace builds its JSON span exporter on top of this; the same
// callbacks support the simTPM-style TPM performance analyses in PAPERS.md.

import (
	"time"

	"flicker/internal/simtime"
)

// SessionMeta identifies one session run to observers.
type SessionMeta struct {
	// ID is the platform-unique session id (monotonic, starting at 1).
	ID uint64
	// Pipeline names the phase-engine variant: "classic" (Figure 2,
	// OS-suspending) or "partitioned" (multicore, [19]).
	Pipeline string
	// PAL is the PAL's name.
	PAL string
	// Start is the simulated time at which the session began.
	Start time.Duration
	// TraceID is the distributed-trace ID the session runs under ("" when
	// untraced) — SessionOptions.TraceID, echoed to observers.
	TraceID string
}

// Observer receives session pipeline events. Callbacks are invoked
// synchronously from the session goroutine, in order: SessionStart, then
// for each phase PhaseStart / zero-or-more Charge / PhaseEnd, then
// SessionEnd. A non-nil err on PhaseEnd/SessionEnd is the infrastructure
// failure that aborted the session (PAL-level errors are not pipeline
// failures; they appear in SessionResult.PALError).
type Observer interface {
	SessionStart(m SessionMeta)
	PhaseStart(sid uint64, phase string, at time.Duration)
	// Charge reports a simulated-clock charge that occurred while the named
	// phase was open (phase is "" for charges outside any phase, e.g.
	// teardown after an abort).
	Charge(sid uint64, phase string, c simtime.Charge)
	PhaseEnd(sid uint64, phase string, at time.Duration, err error)
	SessionEnd(sid uint64, at time.Duration, err error)
}

// CombineObservers fans one observer stream out to several observers (the
// pool's coalescer merges per-job observers into the shared batched session
// with it). Nil entries are dropped; it returns nil for an empty set and
// the observer itself for a singleton.
func CombineObservers(obs ...Observer) Observer {
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

// multiObserver fans callbacks out in registration order.
type multiObserver []Observer

func (m multiObserver) SessionStart(meta SessionMeta) {
	for _, o := range m {
		o.SessionStart(meta)
	}
}

func (m multiObserver) PhaseStart(sid uint64, phase string, at time.Duration) {
	for _, o := range m {
		o.PhaseStart(sid, phase, at)
	}
}

func (m multiObserver) Charge(sid uint64, phase string, c simtime.Charge) {
	for _, o := range m {
		o.Charge(sid, phase, c)
	}
}

func (m multiObserver) PhaseEnd(sid uint64, phase string, at time.Duration, err error) {
	for _, o := range m {
		o.PhaseEnd(sid, phase, at, err)
	}
}

func (m multiObserver) SessionEnd(sid uint64, at time.Duration, err error) {
	for _, o := range m {
		o.SessionEnd(sid, at, err)
	}
}

// AddObserver registers an observer for every subsequent session on the
// platform (both pipelines).
func (p *Platform) AddObserver(o Observer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observers = append(p.observers, o)
}

// RemoveObserver unregisters a previously added observer.
func (p *Platform) RemoveObserver(o Observer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.observers {
		if x == o {
			p.observers = append(p.observers[:i], p.observers[i+1:]...)
			return
		}
	}
}

// observersInto copies the observer list into dst's backing storage,
// growing it only when the list got longer — the session hot path hands in
// a per-platform scratch slice so a warm session does not allocate here.
func (p *Platform) observersInto(dst []Observer) []Observer {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.observers) == 0 {
		return dst[:0]
	}
	return append(dst[:0], p.observers...)
}
