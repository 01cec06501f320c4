package core

import (
	"runtime"
	"runtime/pprof"
	"testing"
)

// TestSessionMemoryBounded guards the platform's memory against growth with
// the sessions it has run: after warm-up, classic sessions touch only pages
// that are already resident, and the platform's live heap grows by at most
// perSessionBudget bytes a session. Nothing on the platform grows per
// session: session accounting lives in fixed-size metric series, the
// simulated clock keeps no charge log, and simulated RAM allocates a page
// only on its first write. The budget of 1 B a session (5000 B over the
// run) leaves room for runtime noise of a few dozen bytes, yet fails on any
// structure that keeps even one word per session.
//
// The one runtime cost the budget cannot absorb is a new OS thread: the
// runtime keeps ~5.4 KB of heap for every thread it ever starts, and it
// may start one during the window when the process's peak parallelism
// rises (in 6 of 30 runs of the package under -race). That memory is the
// runtime's, not the platform's, so a window in which a thread was created
// is measured again; a per-session leak shows in every window.
func TestSessionMemoryBounded(t *testing.T) {
	p := newPlatform(t)
	hello := helloPAL()
	run := func(n int) {
		for i := 0; i < n; i++ {
			res, err := p.RunSession(hello, SessionOptions{})
			if err != nil || res.PALError != nil {
				t.Fatalf("%v %v", err, res.PALError)
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(200)
	resident := p.Machine.Mem.ResidentPages()
	threads := pprof.Lookup("threadcreate")
	const sessions = 5000
	var grew int64
	for window := 0; window < 3; window++ {
		started := threads.Count()
		before := liveHeap()
		run(sessions)
		grew = int64(liveHeap()) - int64(before)
		if threads.Count() == started {
			break
		}
		t.Logf("the runtime started an OS thread during window %d (%+d B); measuring again", window, grew)
	}
	runtime.KeepAlive(p)
	if n := p.Machine.Mem.ResidentPages(); n != resident {
		t.Errorf("resident pages went %d -> %d after warm-up", resident, n)
	}
	const perSessionBudget = 1
	if grew > perSessionBudget*sessions {
		t.Errorf("%d warm sessions grew the live heap by %d B (%.1f B/session), budget %d B/session",
			sessions, grew, float64(grew)/sessions, perSessionBudget)
	}
	t.Logf("live heap %+d B over %d sessions (%.1f B/session); %d pages resident",
		grew, sessions, float64(grew)/sessions, resident)
}

// BenchmarkNewPlatform measures a platform's set-up, the cost flickerbench
// reports as setup_s before any request runs. Profile it with
//
//	go test -run '^$' -bench NewPlatform -cpuprofile cpu.out ./internal/core/
func BenchmarkNewPlatform(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlatform(PlatformConfig{Seed: "flickerbench"}); err != nil {
			b.Fatal(err)
		}
	}
}
