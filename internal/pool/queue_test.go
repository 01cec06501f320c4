package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flicker/internal/core"
	"flicker/internal/pal"
)

// TestPoolCloseDrainHammer races Run, TryRun, and Close: every submission
// that was accepted (did not return ErrClosed/ErrSaturated) must complete
// with a session result — accepted-then-dropped would hang the submitter,
// and a double-completed job would double-send on its reply channel (the
// race detector and the channel's cap-1 send would both trip).
func TestPoolCloseDrainHammer(t *testing.T) {
	for round := 0; round < 4; round++ {
		p, err := New(Config{
			Shards:   2,
			QueueLen: 2,
			Platform: core.PlatformConfig{Seed: fmt.Sprintf("pool-drain-%d", round)},
		})
		if err != nil {
			t.Fatal(err)
		}
		var accepted, completed atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					name := fmt.Sprintf("pal-%d", (w+i)%4)
					var res *core.SessionResult
					var err error
					if w%2 == 0 {
						res, err = p.Run(testPAL(name), core.SessionOptions{})
					} else {
						res, err = p.TryRun(testPAL(name), core.SessionOptions{})
					}
					switch {
					case err == nil:
						accepted.Add(1)
						if res == nil {
							t.Errorf("accepted job returned nil result")
						} else {
							completed.Add(1)
						}
					case errors.Is(err, ErrClosed) || errors.Is(err, ErrSaturated):
						// Rejected; fine under the racing Close/saturation.
					default:
						t.Errorf("unexpected submit error: %v", err)
					}
				}
			}(w)
		}
		close(start)
		// Close concurrently with the submitter storm: raced submissions
		// either reject with ErrClosed or drain to completion.
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if accepted.Load() != completed.Load() {
			t.Fatalf("accepted %d jobs but %d completed", accepted.Load(), completed.Load())
		}
		if n := poolSessions(p); int64(n) < completed.Load() {
			t.Fatalf("platforms ran %d sessions, fewer than %d completed replies", n, completed.Load())
		}
		if _, err := p.Run(testPAL("late"), core.SessionOptions{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Run after drain = %v, want ErrClosed", err)
		}
	}
}

// TestPoolBackpressureDuringClose: a Run blocked on a full queue when Close
// begins holds the submit lock's read side, so Close waits for it while the
// worker keeps draining, and the blocked submitter's session still
// completes.
func TestPoolBackpressureDuringClose(t *testing.T) {
	p, err := New(Config{
		Shards:   1,
		QueueLen: 1,
		Platform: core.PlatformConfig{Seed: "pool-bp-close"},
	})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &pal.Func{
		PALName: "blocker",
		Binary:  pal.DescriptorCode("blocker", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			close(started)
			<-release
			return []byte("done"), nil
		},
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = p.Run(blocker, core.SessionOptions{}) }()
	<-started
	// Fill the single queue slot and pile blocked submitters behind it.
	for i := 1; i < 6; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _, errs[i] = p.Run(testPAL("queued"), core.SessionOptions{}) }(i)
	}
	// Blocker in flight + one job in the queue slot (two submissions) + four
	// submitters blocked on backpressure, all six counted as pending.
	waitFor(t, func() bool { return submitted(p) == 2 && p.shards[0].pending.Load() == 6 },
		"2 submissions and 4 blocked submitters")
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	close(release)
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("submitter %d: %v (blocked submissions must drain or reject, never fail)", i, err)
		}
	}
}

// TestPoolSubmitAllocs budgets the warm submit-to-reply round trip. Job
// records and their reply channels are pooled, the queue sends without
// allocating, and the session itself runs on the platform's scratch, so
// the pool must add only a handful of allocations over the bare session.
func TestPoolSubmitAllocs(t *testing.T) {
	p := newPool(t, 1, 4)
	hello := testPAL("hello")
	if _, err := p.Run(hello, core.SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		res, err := p.Run(hello, core.SessionOptions{})
		if err != nil || res.PALError != nil {
			t.Fatalf("%v %v", err, res.PALError)
		}
	})
	// The warm classic session itself costs 2 allocs, the fresh result Run
	// hands back and the PAL's reply (core's TestSessionAllocs), and the
	// pool's submit/reply framing rides the job pool, so the round trip
	// measures 2 as well. The budget is 4.
	const budget = 4
	if avg > budget {
		t.Errorf("pool round trip costs %.0f allocs, budget %d", avg, budget)
	}
}

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestPoolCoalescedRunAllocs budgets a warm Run through a coalescing pool
// (MaxBatch 4). Each shard gathers into a reused buffer, times its hold
// with a reused timer, and partitions and runs a group in reused scratch
// (taken flags, partition, input sizes and inputs), so a group costs no
// allocation to gather, split or run beyond its batched session.
//   - Lockstep: four persistent callers each issue one Run per round, so
//     every round is one full four-member batch. Measured 3.25 per Run:
//     each caller's fresh result and the PAL's reply, plus a quarter of
//     the batch session's fresh result, timeline, replies, input read-back
//     and output frame; a member's timeline fits its result's slots
//     because it leaves out the group's request spans. Per-group
//     partition scratch cost 5.25, and per-group gather slices and a
//     timer 6.75. Under -race, sync.Pool drops a quarter of what is put
//     back (3.75-4.00).
//   - Sequential: one caller, one Run at a time, skips the hold after the
//     first and runs each job at once, at the 2 allocations of a
//     non-coalescing round trip (TestPoolSubmitAllocs), 3 under -race. It
//     was 3 while flush allocated its taken flags per group, and 7 while
//     every job was held.
func TestPoolCoalescedRunAllocs(t *testing.T) {
	hello := testPAL("hello")
	newCoalescing := func(maxWait time.Duration) *Pool {
		p, err := New(Config{Shards: 1, QueueLen: 8, MaxBatch: 4, MaxWait: maxWait, Platform: core.PlatformConfig{Seed: "pool-test"}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	p := newCoalescing(time.Second)
	const callers = 4
	start := make([]chan struct{}, callers)
	finished := make(chan error, callers)
	for w := range start {
		start[w] = make(chan struct{})
		go func(w int) {
			opts := core.SessionOptions{Input: []byte{byte('a' + w)}}
			for range start[w] {
				_, err := p.Run(hello, opts)
				finished <- err
			}
		}(w)
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	round := func() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		for range start {
			if err := <-finished; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	budget, seqBudget := 4.1, 2.5
	if raceEnabled {
		budget, seqBudget = 5, 4
	}
	if perRun := testing.AllocsPerRun(50, round) / callers; perRun > budget {
		t.Errorf("lockstep coalesced Run = %.2f allocs, budget %.1f", perRun, budget)
	}

	seq := newCoalescing(time.Millisecond)
	run := func() {
		if res, err := seq.Run(hello, core.SessionOptions{}); err != nil || res.PALError != nil {
			t.Fatalf("%v %v", err, res.PALError)
		}
	}
	run()
	if avg := testing.AllocsPerRun(50, run); avg > seqBudget {
		t.Errorf("sequential coalescing-pool Run = %.2f allocs, budget %.1f", avg, seqBudget)
	}
}
