package main

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flicker"
	"flicker/internal/simtime"
)

// Benchmark-side tracing for the -trace run. Spans are recorded from the
// benchmark's own files only: around each call into the system ("req"), by
// a core.Observer on every platform (the session and its phases), and by
// the benchmark's PALs (their bodies). Wall time is read here, outside the
// cycle-accounted packages, so the program under test is unchanged.

// spanKeep is how many requests, from the first traced one, keep their
// spans for the span file; every traced request feeds the aggregates.
const spanKeep = 2000

// span is one recorded interval. Times are wall nanoseconds since the
// tracer started.
type span struct {
	Name   string   `json:"name"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent"`
	Req    uint64   `json:"req,omitempty"`
	Reqs   []uint64 `json:"reqs,omitempty"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// tracer owns one traced run's spans and the aggregates the per-layer
// metrics are computed from.
type tracer struct {
	start time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	// keepFrom is the first traced request id; requests below
	// keepFrom+spanKeep keep their spans.
	keepFrom uint64

	reqWall, reqN atomic.Int64
	mu            sync.Mutex
	reqs          []span // kept req spans, guarded by mu

	// pending holds PAL-body timings, keyed by request id, for PALs that
	// cannot know which platform runs them (pool shards pick up work by
	// PAL affinity); the platform's observer claims the body when the
	// session's pal-exec phase ends.
	pending sync.Map

	observers []*shardObserver
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.start)) }

func (tr *tracer) newID() uint64 { return tr.ids.Add(1) }

func (tr *tracer) keep(id uint64) bool { return id >= tr.keepFrom && id < tr.keepFrom+spanKeep }

// enable starts tracing; requests from first on keep their spans.
func (tr *tracer) enable(first uint64) {
	tr.keepFrom = first
	tr.on.Store(true)
}

func (tr *tracer) active() bool { return tr != nil && tr.on.Load() }

// req records one call into the system under test.
func (tr *tracer) req(id uint64, start, end int64) {
	tr.reqWall.Add(end - start)
	tr.reqN.Add(1)
	if tr.keep(id) {
		tr.mu.Lock()
		tr.reqs = append(tr.reqs, span{Name: "req", ID: tr.newID(), Req: id, Start: start, End: end})
		tr.mu.Unlock()
	}
}

// observer returns a new observer for one platform, registered with the
// tracer for aggregation.
func (tr *tracer) observer() *shardObserver {
	o := &shardObserver{tr: tr, self: map[string]int64{}, count: map[string]int{}}
	tr.observers = append(tr.observers, o)
	return o
}

// bodyTiming is an unbound PAL body's interval.
type bodyTiming struct{ start, end int64 }

// interval is one phase or PAL body of the open session. Spans, with their
// ids, are built from the intervals only for a session that keeps them.
type interval struct {
	phase      string // "" for a PAL body
	req        uint64 // a PAL body's request id
	parent     int    // index of the enclosing phase, or -1 for the session
	start, end int64
}

// openPhase is a phase whose PhaseEnd has not arrived yet.
type openPhase struct {
	iv    int   // index in the session's intervals
	child int64 // wall time of nested phases and PAL bodies
}

// shardObserver is the benchmark's core.Observer for one platform. The
// platform serializes its sessions, so the open-session state needs no lock;
// aggregates are read only after the traced load has drained.
type shardObserver struct {
	tr *tracer

	active   bool
	start    int64
	traceReq uint64 // the request id carried in SessionOptions.TraceID, if any
	members  []uint64
	stack    []openPhase
	ivs      []interval

	sessions    int
	memberN     int
	sessionWall int64
	memberWall  int64            // session wall counted once per member request
	self        map[string]int64 // phase self time, summed
	count       map[string]int   // phase occurrences
	bodyWall    int64
	bodies      int

	spans []span
}

var _ flicker.Observer = (*shardObserver)(nil)

func (o *shardObserver) SessionStart(m flicker.SessionMeta) {
	o.active = o.tr.active()
	if !o.active {
		return
	}
	o.start = o.tr.now()
	o.members = o.members[:0]
	o.stack = o.stack[:0]
	o.ivs = o.ivs[:0]
	o.traceReq = 0
	if m.TraceID != "" {
		if id, err := strconv.ParseUint(m.TraceID, 16, 64); err == nil {
			o.traceReq = id
			o.members = append(o.members, id)
		}
	}
}

// parent is the index of the innermost open phase, or -1.
func (o *shardObserver) parent() int {
	if n := len(o.stack); n > 0 {
		return o.stack[n-1].iv
	}
	return -1
}

func (o *shardObserver) PhaseStart(_ uint64, phase string, _ time.Duration) {
	if !o.active {
		return
	}
	o.ivs = append(o.ivs, interval{phase: phase, parent: o.parent(), start: o.tr.now()})
	o.stack = append(o.stack, openPhase{iv: len(o.ivs) - 1})
}

func (o *shardObserver) Charge(uint64, string, simtime.Charge) {}

func (o *shardObserver) PhaseEnd(_ uint64, phase string, _ time.Duration, _ error) {
	if !o.active || len(o.stack) == 0 {
		return
	}
	end := o.tr.now()
	if phase == "pal-exec" && o.traceReq != 0 {
		if v, ok := o.tr.pending.LoadAndDelete(o.traceReq); ok {
			b := v.(bodyTiming)
			o.addBody(o.traceReq, b.start, b.end)
		}
	}
	n := len(o.stack) - 1
	ph := o.stack[n]
	o.stack = o.stack[:n]
	iv := &o.ivs[ph.iv]
	iv.end = end
	wall := end - iv.start
	o.self[phase] += wall - ph.child
	o.count[phase]++
	if n > 0 {
		o.stack[n-1].child += wall
	}
}

func (o *shardObserver) SessionEnd(uint64, time.Duration, error) {
	if !o.active {
		return
	}
	o.active = false
	end := o.tr.now()
	wall := end - o.start
	o.sessions++
	o.memberN += len(o.members)
	o.sessionWall += wall
	o.memberWall += wall * int64(len(o.members))
	for _, id := range o.members {
		if o.tr.keep(id) {
			o.keepSession(end)
			return
		}
	}
}

// keepSession turns the open session's intervals into spans.
func (o *shardObserver) keepSession(end int64) {
	sid := o.tr.newID()
	o.spans = append(o.spans, span{Name: "core.session", ID: sid,
		Reqs: append([]uint64(nil), o.members...), Start: o.start, End: end})
	ids := make([]uint64, len(o.ivs))
	for i, iv := range o.ivs {
		ids[i] = o.tr.newID()
		s := span{Name: "pal.body", ID: ids[i], Parent: sid, Req: iv.req, Start: iv.start, End: iv.end}
		if iv.phase != "" {
			s.Name = "core.phase." + iv.phase
		}
		if iv.parent >= 0 {
			s.Parent = ids[iv.parent]
		}
		o.spans = append(o.spans, s)
	}
}

// body records a PAL body that ran inside this observer's open session.
func (o *shardObserver) body(id uint64, start, end int64) {
	if !o.active {
		return
	}
	o.members = append(o.members, id)
	o.addBody(id, start, end)
}

func (o *shardObserver) addBody(id uint64, start, end int64) {
	o.bodyWall += end - start
	o.bodies++
	if n := len(o.stack); n > 0 {
		o.stack[n-1].child += end - start
	}
	o.ivs = append(o.ivs, interval{req: id, parent: o.parent(), start: start, end: end})
}

// benchPAL is the benchmark's PAL: a named body plus the tracing hooks. obs
// is the observer of the one platform this instance is registered on, when
// there is one; otherwise the body's timing is handed over by request id.
type benchPAL struct {
	name string
	code []byte
	fn   func(env *flicker.Env, input []byte) ([]byte, error)
	tr   *tracer
	obs  *shardObserver
}

func newPAL(name string, fn func(env *flicker.Env, input []byte) ([]byte, error)) *benchPAL {
	return &benchPAL{name: name, code: flicker.DescriptorCode(name, "1.0", nil, nil), fn: fn}
}

// bound returns a copy of p reporting its bodies to obs.
func (p *benchPAL) bound(tr *tracer, obs *shardObserver) *benchPAL {
	c := *p
	c.tr, c.obs = tr, obs
	return &c
}

func (p *benchPAL) Name() string { return p.name }
func (p *benchPAL) Code() []byte { return p.code }

func (p *benchPAL) Run(env *flicker.Env, input []byte) ([]byte, error) {
	if !p.tr.active() {
		return p.fn(env, input)
	}
	start := p.tr.now()
	out, err := p.fn(env, input)
	end := p.tr.now()
	if p.obs != nil {
		p.obs.body(requestID(input), start, end)
	} else {
		p.tr.pending.Store(requestID(input), bodyTiming{start, end})
	}
	return out, err
}

// spanFile is the layout of <out>/<workload>.spans.json.
type spanFile struct {
	Workload string `json:"workload"`
	// Requests is how many requests kept their spans (the first spanKeep
	// traced ones); aggregates cover every traced request.
	Requests int    `json:"requests"`
	Spans    []span `json:"spans"`
}

// writeSpans links each singleton session to its request's req span and
// writes every kept span.
func (tr *tracer) writeSpans(path, workload string) error {
	reqSpan := make(map[uint64]uint64, len(tr.reqs))
	for _, s := range tr.reqs {
		reqSpan[s.Req] = s.ID
	}
	f := spanFile{Workload: workload, Requests: len(tr.reqs)}
	f.Spans = append(f.Spans, tr.reqs...)
	for _, o := range tr.observers {
		for _, s := range o.spans {
			if s.Name == "core.session" && len(s.Reqs) == 1 {
				s.Parent = reqSpan[s.Reqs[0]]
			}
			f.Spans = append(f.Spans, s)
		}
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
