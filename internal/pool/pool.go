// Package pool scales Flicker session throughput beyond a single platform.
// A core.Platform faithfully serializes its sessions — the flicker-module
// owns one SLB buffer and the machine supports one late launch at a time —
// so a process is capped at one machine's session rate. The paper's own
// Section 7.5 points at the way out: secure execution confined to a subset
// of resources while the rest of the system does other work. The pool is
// the fleet-scale analogue — N independent simulated platforms behind one
// Run API.
//
// Sessions are routed by PAL affinity: a PAL's name hashes to a home shard,
// so repeat sessions land on the platform whose SLB image cache and SKINIT
// measurement cache are already warm for it. When the home shard's bounded
// queue is full, Run overflows to the least-loaded shard and, if every
// queue is full, blocks (backpressure); TryRun returns ErrSaturated
// instead. Close drains: queued sessions still execute, then the workers
// exit.
//
// Each shard owns a private platform stack and a buffered channel of
// QueueLen jobs: any number of submitters send, and the shard's one worker
// receives, as the platform runs one late launch at a time. The worker
// gathers each group with sched.Gather, the loop the fabric controller's
// dispatchers use too, and flushes it. Job records are pooled, and every
// per-session metric writes through a lock-free cell. All shards still
// share one metrics.Registry and one event log — per-shard cells fold at
// scrape time — so the existing observability surface (flicker serve,
// Prometheus exposition) aggregates the fleet without per-shard plumbing.
package pool

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flicker/internal/core"
	"flicker/internal/metrics"
	"flicker/internal/pal"
	"flicker/internal/sched"
)

// ErrClosed is returned by Run/TryRun after Close has begun.
var ErrClosed = errors.New("pool: closed")

// ErrSaturated is returned by TryRun when every shard's queue is full.
var ErrSaturated = errors.New("pool: all shard queues full")

// Config describes a pool.
type Config struct {
	// Shards is the number of independent platforms (default 1).
	Shards int
	// QueueLen bounds each shard's submission queue (default 16).
	QueueLen int
	// Platform is the template configuration for every shard. Seed is
	// suffixed per shard so the platforms are distinct but deterministic;
	// Metrics/Events are overridden with the pool's shared pair.
	Platform core.PlatformConfig
	// MaxBatch enables the adaptive coalescer: a shard worker gathers up
	// to MaxBatch queued jobs for the same PAL and runs them as ONE
	// batched session (group-commit style), amortizing the per-session
	// fixed costs. 0 or 1 disables coalescing (every job is a singleton
	// session). Jobs that cannot share a session — different PAL code,
	// incompatible options, a verifier nonce, fault injection, or a group
	// that would overflow the input page — fall back to singleton
	// sessions.
	MaxBatch int
	// MaxWait bounds how long a worker holds the first job of a group
	// open waiting for companions before flushing what it has (default
	// 1ms; only meaningful when MaxBatch > 1). A worker skips the hold
	// (sched.Hold) while its jobs arrive alone: after a hold that gathered
	// no companion, a job with none queued behind it runs at once, until a
	// group of two or more forms again. A worker that has flushed no group
	// yet follows the latest hold of any of the pool's workers, so a
	// submitter that sends one job at a time pays one hold per pool, not
	// one per shard.
	MaxWait time.Duration
	// WallClock supplies the wall-clock reading used for the queue-delay
	// metric (default time.Now). Queue delay is real scheduling latency, not
	// simulated time, so it cannot come from simtime.Clock — but tests
	// inject a fake here to make the histogram deterministic.
	WallClock func() time.Time
}

// job is one queued session. Records are pooled and recycled (the done
// channel included: each cycle is exactly one send and one receive), so a
// warm submit allocates nothing. The job carries its submitter's
// destination to the shard worker: res for a session, which the worker
// fills, or, for a pre-formed group (RunBatch, batch set), br. A group job
// rides the same queue to the same affinity shard but executes as one
// batched session and never coalesces with neighbors.
type job struct {
	pl   pal.PAL
	opts core.SessionOptions
	dest
	enq  time.Time
	done chan error
}

// dest is a submission's destination: the result a session fills, or a
// pre-formed group and the BatchResult it fills.
type dest struct {
	res   *core.SessionResult
	batch [][]byte
	br    *core.BatchResult
}

// shard is one platform plus its submit queue. All the shard's hot-path
// metrics write through private lock-free cells, so two shards never
// contend on the shared registry.
type shard struct {
	platform *core.Platform
	// q is the submit queue: submitters send, the worker alone receives,
	// and Close closes it once no submitter can send.
	q chan *job
	// pending counts queued plus in-flight sessions, for least-loaded
	// overflow routing.
	pending atomic.Int64

	// Coalescer state, owned by the worker: the gather buffer and hold
	// timer reused for every group (the timer is kept stopped and drained
	// between groups), the adaptive hold rule, and flush's partitioning
	// scratch (which jobs are taken, the partition and its inputs), so a
	// group costs no allocation to split and run.
	group []*job
	timer *time.Timer
	hold  sched.Hold
	used  []bool
	part  []*job
	reqs  [][]byte

	// Per-shard cells on the pool's shared series (see metrics/cells.go).
	queueDelay *metrics.Histogram
	batchSize  *metrics.Histogram
	batchFlush map[string]*metrics.Counter
}

// tryPush queues j unless the queue is full. j counts in pending from
// before the send, so the worker's decrement never precedes it.
func (s *shard) tryPush(j *job) bool {
	s.pending.Add(1)
	select {
	case s.q <- j:
		return true
	default:
		s.pending.Add(-1)
		return false
	}
}

// Pool is a sharded session pool.
type Pool struct {
	shards  []*shard
	metrics *metrics.Registry
	events  *metrics.EventLog
	wg      sync.WaitGroup
	coal    sched.Coalescer
	// holds is the family of the shard workers' coalescer holds, so a quiet
	// pool pays one hold, not one per shard.
	holds sched.HoldFamily

	// The submit/close handshake: a submission holds mu's read side from
	// its closed check until its job is queued, a send blocked on a full
	// queue included, while the workers keep draining. Close sets closed
	// under the write side, so no submission can send once it holds the
	// lock, and then closes every shard's queue once.
	mu     sync.RWMutex
	closed bool

	// jobs recycles job records (with their reply channels) across
	// submissions.
	jobs sync.Pool

	// now is Config.WallClock (default time.Now), used only for the
	// queue-delay metric.
	now func() time.Time

	// Submission counters are resolved to cell-backed handles once at
	// construction — the label sets are closed (route: home|overflow) and
	// submit is the pool's hot path, shared by every producer goroutine.
	metSubmitHome     *metrics.Counter
	metSubmitOverflow *metrics.Counter
	metRejected       *metrics.Counter
	// metQueueDelay is the base handle of the shards' queue-delay cells;
	// its Count and Sum fold every cell in.
	metQueueDelay *metrics.Histogram
}

// New builds and boots a pool of cfg.Shards platforms. The shards boot side
// by side, one goroutine each: a platform's boot is mostly TPM key
// generation, and each shard seeds its own, so the keys, PCR 17 values and
// sealed blobs are those a serial boot would produce. When shards fail, the
// error is the lowest-index one's.
func New(cfg Config) (*Pool, error) {
	return build(cfg, core.NewPlatform)
}

// build is New with the platform constructor as a parameter, so tests can
// make a given shard's boot fail.
func build(cfg Config, newPlatform func(core.PlatformConfig) (*core.Platform, error)) (*Pool, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 16
	}
	reg := cfg.Platform.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	events := cfg.Platform.Events
	if events == nil {
		events = metrics.NewEventLog(0)
	}
	seed := cfg.Platform.Seed
	if seed == "" {
		seed = "flicker"
	}
	// The group-commit knobs are the shared sched.Coalescer discipline —
	// the fabric controller normalizes its wire-frame coalescer the same way.
	co := sched.Coalescer{MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait}.Normalize()
	now := cfg.WallClock
	if now == nil {
		//flickervet:allow walltime(queue delay is real scheduling latency; tests inject Config.WallClock)
		now = time.Now
	}
	submit := reg.Counter("flicker_pool_submissions_total",
		"Sessions submitted to the pool, by route (home = PAL-affinity shard).", "route")
	flush := reg.Counter("flicker_pool_batch_flush_total",
		"Coalescer group flushes, by reason.", "reason")
	p := &Pool{
		metrics:           reg,
		events:            events,
		coal:              co,
		now:               now,
		metSubmitHome:     submit.With("home").Cell(),
		metSubmitOverflow: submit.With("overflow").Cell(),
		metRejected: reg.Counter("flicker_pool_rejected_total",
			"TryRun submissions rejected because every shard queue was full.").With().Cell(),
	}
	batchSize := reg.Histogram("flicker_pool_batch_size",
		"Jobs coalesced per flushed group (1 = singleton fallback).",
		[]float64{1, 2, 4, 8, 16, 32}).With()
	p.metQueueDelay = reg.Histogram("flicker_pool_queue_delay_seconds",
		"Wall-clock time a job spent queued before its session started.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}).With()
	plats := make([]*core.Platform, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var boot sync.WaitGroup
	for i := range plats {
		scfg := cfg.Platform
		scfg.Seed = fmt.Sprintf("%s-shard%d", seed, i)
		scfg.Metrics = reg
		scfg.Events = events
		boot.Add(1)
		go func() {
			defer boot.Done()
			plats[i], errs[i] = newPlatform(scfg)
		}()
	}
	boot.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pool: shard %d: %w", i, err)
		}
	}
	for _, plat := range plats {
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		p.shards = append(p.shards, &shard{
			platform:   plat,
			q:          make(chan *job, cfg.QueueLen),
			timer:      timer,
			hold:       sched.NewHold(&p.holds),
			queueDelay: p.metQueueDelay.Cell(),
			batchSize:  batchSize.Cell(),
			batchFlush: map[string]*metrics.Counter{
				sched.FlushFull:    flush.With(sched.FlushFull).Cell(),
				sched.FlushTimeout: flush.With(sched.FlushTimeout).Cell(),
				sched.FlushDrain:   flush.With(sched.FlushDrain).Cell(),
				sched.FlushIdle:    flush.With(sched.FlushIdle).Cell(),
			},
		})
	}
	for _, s := range p.shards {
		p.wg.Add(1)
		go p.worker(s)
	}
	return p, nil
}

// worker drains one shard's queue until Close closes it. Each iteration
// gathers a group (sched.Gather; with coalescing off, the job alone as a
// full group) or, when the shard's hold rule skips the hold, takes the job
// alone at once (an idle flush); it counts the group once under its flush
// reason, as the fabric controller's dispatchers do, and flushes it.
func (p *Pool) worker(s *shard) {
	defer p.wg.Done()
	for j := range s.q {
		var reason string
		if s.hold.Skip(len(s.q) > 0) {
			s.group, reason = append(s.group[:0], j), sched.FlushIdle
		} else {
			s.group, reason = sched.Gather(p.coal, j, s.q, s.group, s.timer)
		}
		s.hold.Record(len(s.group), reason)
		s.batchFlush[reason].Inc()
		p.flush(s, s.group)
		clear(s.group)
	}
}

// runSingleton executes one job as its own session (or, for a pre-formed
// batch job, one batched session).
func (p *Pool) runSingleton(s *shard, j *job) {
	if j.batch != nil {
		p.runBatchJob(s, j)
		return
	}
	err := s.platform.RunSessionInto(j.res, j.pl, j.opts)
	s.pending.Add(-1)
	j.done <- err
}

// runBatchJob executes a pre-formed RunBatch group as one batched session.
// The group was assembled by the caller (the fabric controller's wire-frame
// coalescer), so flush never merges it, but it shares the shard worker, the
// affinity routing, and the batch-size histogram with coalesced groups.
func (p *Pool) runBatchJob(s *shard, j *job) {
	s.batchSize.ObserveExemplar(float64(len(j.batch)), j.opts.TraceID)
	err := s.platform.RunSessionBatchInto(j.br, j.pl, core.Batch{Requests: j.batch}, j.opts)
	s.pending.Add(-1)
	j.done <- err
}

// batchable reports whether a job may share a session with others at all:
// a verifier nonce, fault injection, or an injector pins a job to its own
// singleton session, and a pre-formed batch is already a group.
func batchable(j *job) bool {
	return j.batch == nil && j.opts.Nonce == nil && j.opts.FailPhase == "" && j.opts.Injector == nil
}

// coalescable reports whether b can join a group keyed by a: same measured
// identity (name + code + extra code) and identical session options.
func coalescable(a, b *job) bool {
	if !batchable(a) || !batchable(b) {
		return false
	}
	if a.pl.Name() != b.pl.Name() || !bytes.Equal(a.pl.Code(), b.pl.Code()) {
		return false
	}
	ae, aok := a.pl.(pal.LargePAL)
	be, bok := b.pl.(pal.LargePAL)
	if aok != bok || (aok && !bytes.Equal(ae.ExtraCode(), be.ExtraCode())) {
		return false
	}
	// Tracing fields (TraceID, Observer) deliberately do not split groups:
	// runBatch merges every member's observer, so a traced job coalesces
	// with untraced companions and still sees the shared session's spans.
	return a.opts.Sandbox == b.opts.Sandbox &&
		a.opts.HeapSize == b.opts.HeapSize &&
		a.opts.TwoStage == b.opts.TwoStage &&
		a.opts.MaxPALTime == b.opts.MaxPALTime
}

// flush partitions a gathered group by PAL affinity and option
// compatibility, bounded by what fits the input page (core.BatchInputFits
// over the running framed size, as the fabric controller's dispatchGroup
// splits its frames), and runs each partition: one batched session for 2+
// jobs, a singleton session for a lone job.
func (p *Pool) flush(s *shard, group []*job) {
	now := p.now()
	for _, j := range group {
		s.queueDelay.ObserveDurationExemplar(now.Sub(j.enq), j.opts.TraceID)
	}
	if cap(s.used) < len(group) {
		s.used = make([]bool, len(group))
	}
	used := s.used[:len(group)]
	clear(used)
	for i := range group {
		if used[i] {
			continue
		}
		used[i] = true
		part := append(s.part[:0], group[i])
		if batchable(group[i]) {
			// BatchInputFits is additive over its arguments, so the framed
			// size of the members already taken rides in its header slot.
			framed := 4 + len(group[i].opts.Input)
			for k := i + 1; k < len(group) && len(part) < p.coal.MaxBatch; k++ {
				in := group[k].opts.Input
				if used[k] || !coalescable(group[i], group[k]) || !core.BatchInputFits(framed, len(in)) {
					continue
				}
				framed += 4 + len(in)
				used[k] = true
				part = append(part, group[k])
			}
		}
		s.part = part
		if part[0].batch == nil {
			// A pre-formed RunBatch group records its real size once, in
			// runBatchJob.
			s.batchSize.ObserveExemplar(float64(len(part)), firstTraceID(part))
		}
		if len(part) == 1 {
			p.runSingleton(s, part[0])
			continue
		}
		p.runBatch(s, part)
	}
	clear(s.part[:cap(s.part)])
}

// runBatch executes a partition as one batched session and fans the
// per-request replies back out to the waiting submitters. Each job's
// SessionResult is filled with the shared session narrowed to its own
// reply (BatchResult.ReplyInto), so a caller cannot observe another
// request's output; the group's BatchResult is fresh, so the members'
// outputs, which alias it, outlive the next group. On session abort, every
// member of the group sees the abort error — the batch engine's
// completed-prefix contract is exercised directly via RunSessionBatch.
func (p *Pool) runBatch(s *shard, part []*job) {
	reqs := s.reqs[:0]
	for _, j := range part {
		reqs = append(reqs, j.opts.Input)
	}
	s.reqs = reqs
	defer clear(reqs)
	opts := part[0].opts
	opts.Input = nil
	// Every traced member observes the shared session: merge the group's
	// per-job observers, and pin the first traced member's ID for deep-layer
	// exemplar attribution (one physical session, one active trace tag).
	var obs []core.Observer
	var traceID string
	for _, j := range part {
		if j.opts.Observer != nil {
			obs = append(obs, j.opts.Observer)
		}
		if traceID == "" {
			traceID = j.opts.TraceID
		}
	}
	opts.Observer = core.CombineObservers(obs...)
	opts.TraceID = traceID
	if opts.MaxPALTime > 0 {
		// Each member was promised MaxPALTime as its own session; the batch
		// arms ONE shared SLB Core timer for the whole group, so scale the
		// budget by the group size. A job that would finish as a singleton
		// must not time out merely because it was coalesced.
		opts.MaxPALTime *= time.Duration(len(part))
	}
	br, err := s.platform.RunSessionBatch(part[0].pl, core.Batch{Requests: reqs}, opts)
	for i, j := range part {
		s.pending.Add(-1)
		if err == nil {
			br.ReplyInto(i, j.res)
		}
		j.done <- err
	}
}

// firstTraceID returns the first traced member's ID ("" when the whole
// group is untraced), linking the batch-size histogram to a trace that rode
// in that group.
func firstTraceID(part []*job) string {
	for _, j := range part {
		if j.opts.TraceID != "" {
			return j.opts.TraceID
		}
	}
	return ""
}

// homeShard returns the PAL's affinity shard via the shared scheduling
// core (sched.Home: FNV-1a over the PAL name). Affinity keeps a PAL's
// sessions on the platform whose image and measurement caches are warm for
// it, and the fabric controller applies the same function across hosts, so
// placement policy has exactly one definition.
func (p *Pool) homeShard(name string) *shard {
	return p.shards[sched.Home(name, len(p.shards))]
}

// leastLoaded returns the shard with the fewest queued + in-flight
// sessions.
func (p *Pool) leastLoaded() *shard {
	return p.shards[sched.LeastLoaded(len(p.shards), p.shardLoad)]
}

// shardLoad is the sched load callback: shard i's queued + in-flight count.
func (p *Pool) shardLoad(i int) int64 { return p.shards[i].pending.Load() }

// newJob checks a pooled record out (allocating only on a cold pool) and
// stamps it for this submission.
func (p *Pool) newJob(pl pal.PAL, opts core.SessionOptions) *job {
	j, _ := p.jobs.Get().(*job)
	if j == nil {
		j = &job{done: make(chan error, 1)}
	}
	j.pl = pl
	j.opts = opts
	j.enq = p.now()
	return j
}

// putJob recycles a job record after its reply has been received (or its
// submission rejected). The done channel is reused: each cycle is exactly
// one send matched by one receive.
func (p *Pool) putJob(j *job) {
	j.pl = nil
	j.opts = core.SessionOptions{}
	j.dest = dest{}
	p.jobs.Put(j)
}

// submit routes one job: non-blocking try on the home shard, then the
// least-loaded shard; if both queues are full, either block on the home
// shard (wait=true, backpressure) or fail with ErrSaturated.
func (p *Pool) submit(pl pal.PAL, opts core.SessionOptions, dst dest, wait bool) (*job, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	j := p.newJob(pl, opts)
	j.dest = dst
	home := p.homeShard(pl.Name())
	if home.tryPush(j) {
		p.metSubmitHome.Inc()
		return j, nil
	}
	if alt := p.leastLoaded(); alt != home && alt.tryPush(j) {
		p.metSubmitOverflow.Inc()
		return j, nil
	}
	if !wait {
		p.metRejected.Inc()
		p.putJob(j)
		return nil, ErrSaturated
	}
	// Backpressure: wait for room on the home shard. Its worker keeps
	// draining, and Close waits for this read side before closing the queue.
	home.pending.Add(1)
	home.q <- j
	p.metSubmitHome.Inc()
	return j, nil
}

// Run executes one session on the PAL's affinity shard (or, under load, the
// least-loaded shard), blocking for queue space when the pool is saturated.
// The result is fresh memory the caller owns.
func (p *Pool) Run(pl pal.PAL, opts core.SessionOptions) (*core.SessionResult, error) {
	return p.runFresh(pl, opts, true)
}

// RunInto is Run filling res, a caller-supplied result whose storage the
// session reuses (core.Platform.RunSessionInto). What res holds afterwards
// stays valid until res is run into again or cleared.
func (p *Pool) RunInto(res *core.SessionResult, pl pal.PAL, opts core.SessionOptions) error {
	return p.do(pl, opts, dest{res: res}, true)
}

// TryRun is Run without backpressure: it returns ErrSaturated instead of
// blocking when every shard queue is full.
func (p *Pool) TryRun(pl pal.PAL, opts core.SessionOptions) (*core.SessionResult, error) {
	return p.runFresh(pl, opts, false)
}

// runFresh runs one session into a fresh result, which the caller owns; on
// error it returns no result.
func (p *Pool) runFresh(pl pal.PAL, opts core.SessionOptions, wait bool) (*core.SessionResult, error) {
	res := core.NewSessionResult()
	if err := p.do(pl, opts, dest{res: res}, wait); err != nil {
		return nil, err
	}
	return res, nil
}

// do submits one job and waits for the worker to fill its destination: the
// one body behind Run, RunInto, TryRun and RunBatch.
func (p *Pool) do(pl pal.PAL, opts core.SessionOptions, dst dest, wait bool) error {
	j, err := p.submit(pl, opts, dst, wait)
	if err != nil {
		return err
	}
	err = <-j.done
	p.putJob(j)
	return err
}

// RunBatch executes a pre-formed group of requests as ONE batched session on
// the PAL's affinity shard — one SKINIT, one Seal/Unseal for the whole group
// — filling out, whose storage the batch reuses
// (core.Platform.RunSessionBatchInto). The caller has already decided the
// grouping (the fabric host runs each runBatch wire frame through here), so
// the group bypasses the coalescer and executes verbatim. opts.Input is
// ignored; each request's input rides in reqs. out carries the shared
// session plus per-request replies, with the engine's completed-prefix
// contract intact: on abort, Completed counts the requests that finished
// and their Replies are preserved.
func (p *Pool) RunBatch(out *core.BatchResult, pl pal.PAL, reqs [][]byte, opts core.SessionOptions) error {
	if len(reqs) == 0 {
		return errors.New("pool: empty batch")
	}
	opts.Input = nil
	return p.do(pl, opts, dest{batch: reqs, br: out}, true)
}

// Close drains the pool: no new submissions are accepted, queued sessions
// still execute (including those of submitters that passed the closed
// check before it, blocked ones too), and Close returns once every worker
// has exited. Closing twice is a no-op.
func (p *Pool) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, s := range p.shards {
			close(s.q)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// Shards returns the number of platforms in the pool.
func (p *Pool) Shards() int { return len(p.shards) }

// Shard returns shard i's platform, for tests and direct inspection.
func (p *Pool) Shard(i int) *core.Platform { return p.shards[i].platform }

// Metrics returns the shared registry every shard reports into.
func (p *Pool) Metrics() *metrics.Registry { return p.metrics }

// Events returns the shared security event log.
func (p *Pool) Events() *metrics.EventLog { return p.events }
