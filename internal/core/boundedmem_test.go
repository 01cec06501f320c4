package core

import (
	"runtime"
	"testing"
)

// TestSessionMemoryBounded guards the platform's memory against growth with
// the sessions it has run: after warm-up, classic sessions touch only pages
// that are already resident, and the platform's live heap grows by at most
// perSessionBudget bytes a session. What remains is sessionDurations, the
// 8 B a session that Platform.Stats keeps for its percentiles (appended into
// a slice that doubles, so up to ~16 B a session while it grows); deleting
// the hand-kept Stats structs deletes it too. The simulated clock keeps no
// charge log, and simulated RAM allocates a page only on its first write.
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
	before := liveHeap()
	const sessions = 5000
	run(sessions)
	after := liveHeap()
	runtime.KeepAlive(p)
	if n := p.Machine.Mem.ResidentPages(); n != resident {
		t.Errorf("resident pages went %d -> %d after warm-up", resident, n)
	}
	const perSessionBudget = 24
	grew := int64(after) - int64(before)
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
