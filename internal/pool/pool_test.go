package pool

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flicker/internal/core"
	"flicker/internal/metrics"
	"flicker/internal/pal"
	"flicker/internal/sched"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

func testPAL(name string) pal.PAL {
	return &pal.Func{
		PALName: name,
		Binary:  pal.DescriptorCode(name, "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return append([]byte(name+":"), input...), nil
		},
	}
}

// poolSessions reads the pool-wide count of completed sessions from the
// registry every shard reports into.
func poolSessions(p *Pool) int {
	return int(p.Metrics().Snapshot().Sum("flicker_sessions_total", "ok"))
}

// sessionCount is a test observer counting the sessions that completed on
// one platform.
type sessionCount struct{ n atomic.Int64 }

func (c *sessionCount) SessionStart(core.SessionMeta)                 {}
func (c *sessionCount) PhaseStart(uint64, string, time.Duration)      {}
func (c *sessionCount) Charge(uint64, string, simtime.Charge)         {}
func (c *sessionCount) PhaseEnd(uint64, string, time.Duration, error) {}
func (c *sessionCount) SessionEnd(_ uint64, _ time.Duration, err error) {
	if err == nil {
		c.n.Add(1)
	}
}

// countShards attaches a sessionCount to every shard, indexed by shard.
// Attach it before the sessions it should count.
func countShards(p *Pool) []*sessionCount {
	out := make([]*sessionCount, p.Shards())
	for i := range out {
		out[i] = &sessionCount{}
		p.Shard(i).AddObserver(out[i])
	}
	return out
}

func newPool(t *testing.T, shards, queueLen int) *Pool {
	t.Helper()
	p, err := New(Config{
		Shards:   shards,
		QueueLen: queueLen,
		Platform: core.PlatformConfig{Seed: "pool-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolRunsSessions(t *testing.T) {
	p := newPool(t, 4, 4)
	for i := 0; i < 8; i++ {
		res, err := p.Run(testPAL("hello"), core.SessionOptions{Input: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if res.PALError != nil {
			t.Fatal(res.PALError)
		}
		if string(res.Outputs) != "hello:x" {
			t.Fatalf("outputs = %q", res.Outputs)
		}
	}
	if n := poolSessions(p); n != 8 {
		t.Fatalf("completed sessions = %d, want 8", n)
	}
	if n := p.Shards(); n != 4 {
		t.Fatalf("Shards() = %d, want 4", n)
	}
}

// Affinity: under no load, every session for one PAL lands on the same
// shard, keeping that platform's image and measurement caches warm.
func TestPoolAffinityRouting(t *testing.T) {
	p := newPool(t, 4, 4)
	counts := countShards(p)
	hello := testPAL("hello")
	for i := 0; i < 6; i++ {
		if _, err := p.Run(hello, core.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, c := range counts {
		if n := c.n.Load(); n > 0 {
			busy++
			if n != 6 {
				t.Errorf("home shard ran %d sessions, want all 6", n)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("sessions spread over %d shards under no load, want 1 (affinity)", busy)
	}
	// One shard ran everything, so the pool-wide build count is the home
	// shard's.
	if n := p.Metrics().Snapshot().Sum("flicker_slb_image_cache_total", "build"); n != 1 {
		t.Errorf("home shard linked the image %v times, want 1", n)
	}
	// Different PAL names spread across shards rather than piling onto one.
	homes := make(map[*shard]bool)
	for i := 0; i < 32; i++ {
		homes[p.homeShard(fmt.Sprintf("pal-%d", i))] = true
	}
	if len(homes) < 2 {
		t.Fatalf("32 PAL names all hash to one shard; affinity hash is degenerate")
	}
}

// Backpressure: with one shard and a one-slot queue, TryRun must reject
// once the worker is busy and the slot is taken, and Run must
// block-then-complete rather than reject.
func TestPoolBackpressure(t *testing.T) {
	p := newPool(t, 1, 1)
	slow := &pal.Func{
		PALName: "slow",
		Binary:  pal.DescriptorCode("slow", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return []byte("done"), nil
		},
	}
	var wg sync.WaitGroup
	release := pinShardWorker(t, p, &wg)
	run := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Run(slow, core.SessionOptions{}); err != nil {
				t.Errorf("Run under saturation: %v", err)
			}
		}()
	}
	// The blocker in flight and one job in the slot fill the shard.
	run()
	waitFor(t, func() bool { return p.shards[0].pending.Load() == 2 }, "a busy worker and a full queue")
	if _, err := p.TryRun(slow, core.SessionOptions{}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("TryRun on a saturated pool = %v, want ErrSaturated", err)
	}
	if n := p.Metrics().Snapshot().Sum("flicker_pool_rejected_total"); n != 1 {
		t.Fatalf("flicker_pool_rejected_total = %v, want 1", n)
	}
	// Runs submitted now block on the full queue, then complete.
	for i := 0; i < 7; i++ {
		run()
	}
	release()
	wg.Wait()
	if n := poolSessions(p); n != 9 {
		t.Fatalf("%d sessions completed, want 9 (the blocker and 8 Runs)", n)
	}
}

// Drain-on-close: sessions queued before Close still execute; submissions
// after Close fail with ErrClosed.
func TestPoolDrainOnClose(t *testing.T) {
	p := newPool(t, 2, 8)
	hello := testPAL("hello")
	type out struct {
		res *core.SessionResult
		err error
	}
	results := make(chan out, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(hello, core.SessionOptions{})
			results <- out{res, err}
		}()
	}
	wg.Wait() // all 8 completed (Run is synchronous), now close
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("pre-close session failed: %v", r.err)
		}
	}
	if _, err := p.Run(hello, core.SessionOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if _, err := p.TryRun(hello, core.SessionOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryRun after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// The -race hammer: sessions for several PALs racing with registry
// snapshots and event-log reads across all shards.
func TestPoolConcurrentHammer(t *testing.T) {
	p := newPool(t, 4, 4)
	pals := []pal.PAL{testPAL("a"), testPAL("b"), testPAL("c"), testPAL("d")}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := p.Run(pals[(w+i)%len(pals)], core.SessionOptions{Input: []byte{byte(i)}})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if res.PALError != nil {
					t.Errorf("worker %d: %v", w, res.PALError)
					return
				}
			}
		}(w)
	}
	// Concurrent observers: full metric scrapes while sessions run.
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Metrics().Snapshot()
				p.Events().Events()
			}
		}
	}()
	wg.Wait()
	close(stop)
	obs.Wait()
	if n := poolSessions(p); n != 80 {
		t.Fatalf("completed sessions = %d, want 80", n)
	}
}

// Shared observability: all shards report into one registry, so the pool's
// session counter equals the per-shard sum.
func TestPoolSharedMetricsRegistry(t *testing.T) {
	p := newPool(t, 3, 4)
	for i := 0; i < 9; i++ {
		if _, err := p.Run(testPAL(fmt.Sprintf("pal-%d", i%3)), core.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if submitted := p.Metrics().Snapshot().Sum("flicker_pool_submissions_total"); submitted != 9 {
		t.Fatalf("flicker_pool_submissions_total = %v, want 9", submitted)
	}
	if n := poolSessions(p); n != 9 {
		t.Fatalf("completed sessions = %d, want 9", n)
	}
}

// --- Coalescer --------------------------------------------------------------

// waitSubmitted polls until n jobs have been queued on the shards
// (flicker_pool_submissions_total), so a test can pin the queue order.
func waitSubmitted(t *testing.T, p *Pool, n int) {
	t.Helper()
	waitFor(t, func() bool { return submitted(p) == n }, fmt.Sprintf("%d submissions", n))
}

// submitted reads flicker_pool_submissions_total over both routes.
func submitted(p *Pool) int {
	return int(p.Metrics().Snapshot().Sum("flicker_pool_submissions_total"))
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never reached %s", what)
}

// The coalescer: jobs queued behind a busy worker flush as ONE batched
// session, incompatible jobs (here: one with a verifier nonce) fall back to
// singletons, and the batch metrics record the flush.
func TestPoolCoalescesQueuedJobs(t *testing.T) {
	p, err := New(Config{
		Shards:   1,
		QueueLen: 16,
		MaxBatch: 8,
		MaxWait:  20 * time.Millisecond,
		Platform: core.PlatformConfig{Seed: "pool-batch-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &pal.Func{
		PALName: "blocker",
		Binary:  pal.DescriptorCode("blocker", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			close(started)
			<-release
			return []byte("unblocked"), nil
		},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Run(blocker, core.SessionOptions{}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	<-started // the worker is now pinned inside the blocker session

	// Queue 4 coalescable jobs plus one pinned to a singleton by its nonce.
	batched := testPAL("batched")
	nonce := tpm.Digest{1, 2, 3}
	results := make([]*core.SessionResult, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := core.SessionOptions{Input: []byte{byte('a' + i)}}
			if i == 4 {
				opts.Nonce = &nonce
			}
			res, err := p.Run(batched, opts)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	waitSubmitted(t, p, 6) // blocker in flight + 5 queued
	close(release)
	wg.Wait()

	for i := 0; i < 5; i++ {
		if results[i] == nil {
			t.Fatalf("job %d: no result", i)
		}
		if results[i].PALError != nil {
			t.Fatalf("job %d: %v", i, results[i].PALError)
		}
		want := "batched:" + string([]byte{byte('a' + i)})
		if string(results[i].Outputs) != want {
			t.Errorf("job %d outputs = %q, want %q (reply isolation)", i, results[i].Outputs, want)
		}
		// A member's timeline is the pipeline's phases, as the singleton's
		// is: no member sees the group's request spans.
		if got, want := fmt.Sprint(phaseNames(results[i])), fmt.Sprint(phaseNames(results[4])); got != want {
			t.Errorf("job %d timeline %s, want the singleton's %s", i, got, want)
		}
	}
	// 3 sessions total: the blocker, ONE batch of 4, and the nonce singleton.
	if n := poolSessions(p); n != 3 {
		t.Errorf("shard ran %d sessions for 6 jobs, want 3 (coalesced)", n)
	}
	// Two gathered groups: the blocker, flushed alone on timeout, and the
	// five queued jobs, counted once however flush partitions them.
	if v := p.Metrics().Snapshot().Sum("flicker_pool_batch_flush_total"); v != 2 {
		t.Errorf("flicker_pool_batch_flush_total = %v, want 2", v)
	}
	if results[4].Pipeline != "classic" {
		t.Errorf("nonce job ran on %q, want a singleton classic session", results[4].Pipeline)
	}
	if results[0].Pipeline != "classic-batch" {
		t.Errorf("coalesced job ran on %q, want classic-batch", results[0].Pipeline)
	}
}

// phaseNames lists a result's timeline by phase name.
func phaseNames(r *core.SessionResult) []string {
	var names []string
	for _, ph := range r.Phases {
		names = append(names, ph.Name)
	}
	return names
}

// pinShardWorker occupies a single-shard pool's worker with a blocker
// session until the returned release func is called, so jobs queued in the
// meantime gather into one coalesced group when the worker comes back.
func pinShardWorker(t *testing.T, p *Pool, wg *sync.WaitGroup) func() {
	t.Helper()
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &pal.Func{
		PALName: "blocker",
		Binary:  pal.DescriptorCode("blocker", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			close(started)
			<-release
			return []byte("unblocked"), nil
		},
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Run(blocker, core.SessionOptions{}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	<-started
	return func() { close(release) }
}

// A submitter that sends one job at a time pays one coalescer hold, not
// one per job: after the first job waits out MaxWait alone, each later job
// finds no companion queued and runs at once (an idle flush). Jobs that
// queue behind a busy worker after that quiet period still coalesce: the
// worker finds companions behind the first and gathers them.
func TestPoolHoldSkippedForSequentialRuns(t *testing.T) {
	const maxWait = 250 * time.Millisecond
	p, err := New(Config{
		Shards:   1,
		QueueLen: 16,
		MaxBatch: 4,
		MaxWait:  maxWait,
		Platform: core.PlatformConfig{Seed: "pool-hold-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	hello := testPAL("hello")
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := p.Run(hello, core.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= 2*maxWait {
		t.Fatalf("10 sequential Runs took %v, want under 2×MaxWait (%v): each job was held", took, 2*maxWait)
	}
	if n := p.Metrics().Snapshot().Sum("flicker_pool_batch_flush_total", "idle"); n < 9 {
		t.Fatalf("idle flushes = %v after 10 sequential Runs, want >= 9", n)
	}

	var wg sync.WaitGroup
	release := pinShardWorker(t, p, &wg)
	results := make([]*core.SessionResult, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := p.Run(hello, core.SessionOptions{Input: []byte{byte('a' + i)}})
			if err != nil {
				t.Errorf("burst job %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	waitSubmitted(t, p, 15) // 10 sequential, the blocker and 4 queued
	release()
	wg.Wait()
	for i, res := range results {
		if res == nil || res.Pipeline != "classic-batch" {
			t.Fatalf("burst job %d = %+v, want a coalesced classic-batch session", i, res)
		}
	}
	if n := poolSessions(p); n != 12 {
		t.Fatalf("sessions = %d, want 12 (10 sequential, the blocker, one batch of 4)", n)
	}
}

// A pool's shard workers share what their holds have learned: sequential
// jobs whose PALs are homed on both shards of a coalescing pool pay one
// MaxWait hold in all, not one per shard.
func TestPoolHoldSharedAcrossShards(t *testing.T) {
	const maxWait = 250 * time.Millisecond
	p, err := New(Config{
		Shards:   2,
		QueueLen: 16,
		MaxBatch: 4,
		MaxWait:  maxWait,
		Platform: core.PlatformConfig{Seed: "pool-hold-shared"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var pals []pal.PAL
	homed := [2]int{}
	for i := 0; len(pals) < 8; i++ {
		name := fmt.Sprintf("pal-%d", i)
		if h := sched.Home(name, 2); homed[h] < 4 {
			homed[h]++
			pals = append(pals, testPAL(name))
		}
	}
	start := time.Now()
	for k := 0; k < 2; k++ {
		for _, pl := range pals {
			if _, err := p.Run(pl, core.SessionOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if took := time.Since(start); took >= 2*maxWait {
		t.Fatalf("16 sequential jobs over both shards took %v, want under 2×MaxWait (%v): each shard paid its own hold", took, 2*maxWait)
	}
	snap := p.Metrics().Snapshot()
	if n := snap.Sum("flicker_pool_batch_flush_total", "idle"); n != 15 {
		t.Fatalf("idle flushes = %v after 16 sequential jobs over 2 shards, want 15", n)
	}
	if n := snap.Sum("flicker_pool_batch_flush_total", "timeout"); n != 1 {
		t.Fatalf("timeout flushes = %v after 16 sequential jobs over 2 shards, want 1", n)
	}
}

// Coalescing must not make jobs time out that would succeed as singletons:
// the batch session arms ONE shared SLB Core timer for the whole group, so
// its budget scales with the group size.
func TestPoolBatchScalesTimerBudget(t *testing.T) {
	p, err := New(Config{
		Shards:   1,
		QueueLen: 16,
		MaxBatch: 4,
		MaxWait:  20 * time.Millisecond,
		Platform: core.PlatformConfig{Seed: "pool-batch-budget"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	release := pinShardWorker(t, p, &wg)

	// Each job burns 10ms of simulated CPU against a 15ms budget: fine
	// alone, but an unscaled shared timer would kill every member of a
	// 4-job batch after the first request.
	steady := &pal.Func{
		PALName: "steady",
		Binary:  pal.DescriptorCode("steady", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			env.ChargeCPU(simtime.Charge{Duration: 10 * time.Millisecond, Label: "cpu.steady"})
			return append([]byte("ok:"), input...), nil
		},
	}
	results := make([]*core.SessionResult, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := p.Run(steady, core.SessionOptions{
				Input:      []byte{byte('a' + i)},
				MaxPALTime: 15 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
		waitSubmitted(t, p, 2+i) // blocker in flight + i+1 queued, in order
	}
	release()
	wg.Wait()

	for i, res := range results {
		if res == nil {
			t.Fatalf("job %d: no result", i)
		}
		if res.PALError != nil {
			t.Errorf("job %d: %v (coalescing must not introduce timeouts)", i, res.PALError)
		} else if want := "ok:" + string([]byte{byte('a' + i)}); string(res.Outputs) != want {
			t.Errorf("job %d outputs = %q, want %q", i, res.Outputs, want)
		}
	}
	// The 4 jobs shared ONE batched session (plus the blocker's singleton).
	if n := poolSessions(p); n != 2 {
		t.Errorf("shard ran %d sessions, want 2 (blocker + one batch)", n)
	}
}

// A batch-level timeout must not clobber members whose requests completed
// before the shared timer fired: they keep their replies, exactly as their
// own singleton sessions would have succeeded; the interrupted request and
// the ones that never ran see the timeout.
func TestPoolBatchTimeoutPreservesCompletedPrefix(t *testing.T) {
	p, err := New(Config{
		Shards:   1,
		QueueLen: 16,
		MaxBatch: 4,
		MaxWait:  20 * time.Millisecond,
		Platform: core.PlatformConfig{Seed: "pool-batch-timeout"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	release := pinShardWorker(t, p, &wg)

	// 'S' burns far past the whole scaled budget (4 x 50ms); the rest 10ms.
	mixed := &pal.Func{
		PALName: "mixed",
		Binary:  pal.DescriptorCode("mixed", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			d := 10 * time.Millisecond
			if input[0] == 'S' {
				d = time.Second
			}
			env.ChargeCPU(simtime.Charge{Duration: d, Label: "cpu.mixed"})
			return append([]byte("ok:"), input...), nil
		},
	}
	inputs := []byte{'a', 'b', 'S', 'c'}
	results := make([]*core.SessionResult, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := p.Run(mixed, core.SessionOptions{
				Input:      []byte{inputs[i]},
				MaxPALTime: 50 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
		waitSubmitted(t, p, 2+i) // pin the queue (and therefore batch) order
	}
	release()
	wg.Wait()

	// a and b completed before the timer fired: their replies survive.
	for i := 0; i < 2; i++ {
		if results[i] == nil {
			t.Fatalf("job %d: no result", i)
		}
		if results[i].PALError != nil {
			t.Fatalf("job %d PALError = %v; completed-prefix reply clobbered by the batch timeout", i, results[i].PALError)
		}
		if want := "ok:" + string(inputs[i]); string(results[i].Outputs) != want {
			t.Errorf("job %d outputs = %q, want %q", i, results[i].Outputs, want)
		}
	}
	// S (interrupted) and c (never ran) both report the timeout, no output.
	for i := 2; i < 4; i++ {
		if results[i] == nil {
			t.Fatalf("job %d: no result", i)
		}
		if !errors.Is(results[i].PALError, pal.ErrPALTimeout) {
			t.Errorf("job %d PALError = %v, want ErrPALTimeout", i, results[i].PALError)
		}
		if len(results[i].Outputs) != 0 {
			t.Errorf("job %d outputs = %q, want none", i, results[i].Outputs)
		}
	}
	if n := poolSessions(p); n != 2 {
		t.Errorf("shard ran %d sessions, want 2 (blocker + one batch)", n)
	}
}

// Queued jobs whose inputs overflow one input page split at the page bound:
// the first two of three 1400-byte inputs frame into one batched session,
// and the third, which would overflow it, runs as a singleton. Every job
// sees only its own reply.
func TestPoolCoalescerSplitsAtInputPage(t *testing.T) {
	p, err := New(Config{
		Shards:   1,
		QueueLen: 8,
		MaxBatch: 4,
		MaxWait:  20 * time.Millisecond,
		Platform: core.PlatformConfig{Seed: "pool-page-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	big := &pal.Func{
		PALName: "big",
		Binary:  pal.DescriptorCode("big", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return fmt.Appendf(nil, "%c:%d", input[0], len(input)), nil
		},
	}
	const n, size = 3, 1400
	if !core.BatchInputFits(0, size, size) || core.BatchInputFits(0, size, size, size) {
		t.Fatalf("inputs of %d bytes: want two to fit one page and three not to", size)
	}
	var wg sync.WaitGroup
	release := pinShardWorker(t, p, &wg)
	results := make([]*core.SessionResult, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(big, core.SessionOptions{Input: bytes.Repeat([]byte{byte('a' + i)}, size)})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			results[i] = res
		}()
		waitSubmitted(t, p, 2+i) // pin the queue order
	}
	release()
	wg.Wait()

	wantPipeline := []string{"classic-batch", "classic-batch", "classic"}
	for i, res := range results {
		if res == nil {
			t.Fatalf("job %d: no result", i)
		}
		if res.PALError != nil {
			t.Fatalf("job %d: %v", i, res.PALError)
		}
		if want := fmt.Sprintf("%c:%d", 'a'+i, size); string(res.Outputs) != want {
			t.Errorf("job %d outputs = %q, want %q (reply isolation)", i, res.Outputs, want)
		}
		if res.Pipeline != wantPipeline[i] {
			t.Errorf("job %d ran on %q, want %q", i, res.Pipeline, wantPipeline[i])
		}
	}
	// The blocker, one batch of two and one singleton.
	if got := poolSessions(p); got != 3 {
		t.Errorf("shard ran %d sessions, want 3", got)
	}
	if count, sum := batchSizeHist(p); count != 3 || sum != 4 {
		t.Errorf("flicker_pool_batch_size holds %d partitions of %v jobs, want 3 of 4", count, sum)
	}
}

// MaxBatch=1 (the default) must keep exact singleton behavior.
func TestPoolDefaultIsSingleton(t *testing.T) {
	p := newPool(t, 1, 4)
	for i := 0; i < 4; i++ {
		if _, err := p.Run(testPAL("solo"), core.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := poolSessions(p); n != 4 {
		t.Fatalf("sessions = %d, want 4", n)
	}
	// Each job is a group of one, counted once as a full flush.
	snap := p.Metrics().Snapshot()
	if all, full := snap.Sum("flicker_pool_batch_flush_total"), snap.Sum("flicker_pool_batch_flush_total", "full"); all != 4 || full != 4 {
		t.Fatalf("batch flushes = %v (%v full) with MaxBatch unset, want 4 full", all, full)
	}
}

// leastLoaded picks the shard with the fewest queued + in-flight sessions,
// first-wins on ties.
func TestPoolLeastLoaded(t *testing.T) {
	p := newPool(t, 3, 4)
	p.shards[0].pending.Store(5)
	p.shards[1].pending.Store(2)
	p.shards[2].pending.Store(7)
	if got := p.leastLoaded(); got != p.shards[1] {
		t.Fatalf("leastLoaded picked pending=%d, want shard 1 (pending=2)", got.pending.Load())
	}
	p.shards[1].pending.Store(5)
	p.shards[2].pending.Store(5)
	if got := p.leastLoaded(); got != p.shards[0] {
		t.Fatal("leastLoaded tie must resolve to the first shard")
	}
	for _, s := range p.shards {
		s.pending.Store(0)
	}
}

// Overflow spill: when a PAL's home queue is full, submission overflows to
// the least-loaded shard instead of blocking.
func TestPoolOverflowSpill(t *testing.T) {
	p, err := New(Config{
		Shards:   2,
		QueueLen: 1,
		Platform: core.PlatformConfig{Seed: "pool-spill-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	counts := countShards(p)

	// Find names homed on shard 0.
	nameOn := func(idx int, prefix string) string {
		for i := 0; ; i++ {
			n := fmt.Sprintf("%s-%d", prefix, i)
			if p.homeShard(n) == p.shards[idx] {
				return n
			}
		}
	}
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &pal.Func{
		PALName: nameOn(0, "blocker"),
		Binary:  pal.DescriptorCode("blocker", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			close(started)
			<-release
			return []byte("unblocked"), nil
		},
	}
	spillName := nameOn(0, "spill")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Run(blocker, core.SessionOptions{}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	<-started

	// Fill shard 0's single queue slot...
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Run(testPAL(spillName), core.SessionOptions{}); err != nil {
			t.Errorf("queued job: %v", err)
		}
	}()
	waitSubmitted(t, p, 2)
	// ...so this submission must spill to shard 1 and complete while the
	// home worker is still pinned.
	res, err := p.Run(testPAL(spillName), core.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Outputs) != spillName+":" {
		t.Fatalf("spilled outputs = %q", res.Outputs)
	}
	if v := p.Metrics().Snapshot().Sum("flicker_pool_submissions_total", "overflow"); v < 1 {
		t.Errorf("overflow submissions = %v, want >= 1", v)
	}
	if n := counts[1].n.Load(); n != 1 {
		t.Errorf("overflow shard ran %d sessions, want 1", n)
	}
	close(release)
	wg.Wait()
}

// The queue-delay metric reads Config.WallClock, so a test-injected clock
// makes the histogram exactly reproducible: with a clock that steps 1ms per
// reading and strictly alternating enqueue/observe calls (sequential Run on
// one shard), every job's recorded delay is exactly one step.
func TestPoolQueueDelayDeterministic(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	step := time.Millisecond
	p, err := New(Config{
		Shards:   1,
		QueueLen: 4,
		Platform: core.PlatformConfig{Seed: "pool-test"},
		WallClock: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(step)
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const jobs = 5
	for i := 0; i < jobs; i++ {
		if _, err := p.Run(testPAL("clocked"), core.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.metQueueDelay.Count(); got != jobs {
		t.Fatalf("queue-delay observations = %d, want %d", got, jobs)
	}
	// Each job: one reading at enqueue, the next at dequeue — exactly one
	// 1ms step of delay, every run, on every machine.
	want := metrics.Seconds(step) * jobs
	if got := p.metQueueDelay.Sum(); got != want {
		t.Fatalf("queue-delay sum = %v, want exactly %v", got, want)
	}
}
