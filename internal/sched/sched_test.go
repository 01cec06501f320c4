package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Home must match the FNV-1a routing the pool has always used, so the
// extraction cannot silently re-home every PAL's warm caches.
func TestHomeIsFNV1a(t *testing.T) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	for _, key := range []string{"", "a", "ssh-auth", "flicker-ca", "pal-7"} {
		h := uint64(offset64)
		for i := 0; i < len(key); i++ {
			h ^= uint64(key[i])
			h *= prime64
		}
		for _, n := range []int{1, 3, 4, 16} {
			if got, want := Home(key, n), int(h%uint64(n)); got != want {
				t.Fatalf("Home(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}

func TestHomeSpreadsKeys(t *testing.T) {
	seen := make(map[int]bool)
	for i := 0; i < 32; i++ {
		seen[Home(fmt.Sprintf("pal-%d", i), 4)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("32 keys over 4 targets hit only %d homes", len(seen))
	}
}

func TestLeastLoadedPicksMinAndBreaksTiesLow(t *testing.T) {
	loads := []int64{5, 2, 9, 2}
	got := LeastLoaded(len(loads), func(i int) int64 { return loads[i] })
	if got != 1 {
		t.Fatalf("LeastLoaded = %d, want 1 (first of the tied minima)", got)
	}
	one := LeastLoaded(1, func(int) int64 { return 99 })
	if one != 0 {
		t.Fatalf("single-target LeastLoaded = %d, want 0", one)
	}
}

// Gather builds each group in the caller's buffer and times the hold with
// the caller's timer, leaving the timer stopped and drained for the next
// group: a full flush, then a timeout flush, then a steady state of both
// that allocates nothing.
func TestGatherReusesBufferAndTimer(t *testing.T) {
	c := Coalescer{MaxBatch: 4, MaxWait: 100 * time.Microsecond}
	ch := make(chan int, 8)
	buf := make([]int, 0, 4)
	timer := time.NewTimer(time.Hour)
	timer.Stop()

	for i := 1; i <= 3; i++ {
		ch <- i
	}
	group, reason := Gather(c, 0, ch, buf, timer)
	if reason != FlushFull || fmt.Sprint(group) != "[0 1 2 3]" {
		t.Fatalf("full gather = %v, %s", group, reason)
	}
	if &group[0] != &buf[:1][0] {
		t.Fatal("full gather did not build the group in the caller's buffer")
	}
	group, reason = Gather(c, 9, ch, group, timer)
	if reason != FlushTimeout || fmt.Sprint(group) != "[9]" {
		t.Fatalf("lone-item gather = %v, %s, want [9] on timeout", group, reason)
	}

	avg := testing.AllocsPerRun(50, func() {
		for i := 1; i <= 3; i++ {
			ch <- i
		}
		if group, reason = Gather(c, 0, ch, group, timer); reason != FlushFull {
			t.Fatalf("steady full gather flushed on %s", reason)
		}
		if group, reason = Gather(c, 0, ch, group, timer); reason != FlushTimeout {
			t.Fatalf("steady lone gather flushed on %s", reason)
		}
	})
	if avg != 0 {
		t.Fatalf("Gather with a reused buffer and timer = %.2f allocs, want 0", avg)
	}
}

// A channel closed with items still queued is a draining queue: Gather takes
// what is queued, flushes it under FlushDrain without reading zero values
// off the closed channel, and leaves the timer stopped and drained.
func TestGatherClosedChannelFlushesDrain(t *testing.T) {
	c := Coalescer{MaxBatch: 8, MaxWait: time.Hour}
	ch := make(chan int, 4)
	ch <- 2
	ch <- 3
	close(ch)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	group, reason := Gather(c, 1, ch, nil, timer)
	if reason != FlushDrain || fmt.Sprint(group) != "[1 2 3]" {
		t.Fatalf("gather on a closed channel = %v, %s; want [1 2 3], %s", group, reason, FlushDrain)
	}
	if timer.Stop() {
		t.Fatal("Gather left the hold timer running")
	}
	select {
	case <-timer.C:
		t.Fatal("Gather left a fired value in the hold timer's channel")
	default:
	}
}

// Hold's state machine: a new Hold holds; a lone item flushed on timeout
// makes the next item skip the hold unless a companion is queued; an idle
// flush keeps skipping; any group of two or more re-arms the hold; a lone
// full or drain flush changes nothing.
func TestHoldSkipsAfterLoneTimeout(t *testing.T) {
	var h Hold
	steps := []struct {
		n      int
		reason string
		skip   bool // Skip(false) after recording the group
	}{
		{1, FlushFull, false},
		{1, FlushDrain, false},
		{1, FlushTimeout, true},
		{1, FlushIdle, true},
		{1, FlushDrain, true},
		{1, FlushFull, true},
		{2, FlushTimeout, false},
		{1, FlushTimeout, true},
		{4, FlushFull, false},
		{1, FlushTimeout, true},
		{3, FlushDrain, false},
	}
	if h.Skip(false) {
		t.Fatal("a new Hold skips the hold; a dispatcher's first burst would not coalesce")
	}
	for i, s := range steps {
		h.Record(s.n, s.reason)
		if got := h.Skip(false); got != s.skip {
			t.Fatalf("step %d: after a group of %d flushed on %s, Skip(false) = %v, want %v", i, s.n, s.reason, got, s.skip)
		}
		if h.Skip(true) {
			t.Fatalf("step %d: Skip(true) with a companion queued, want a hold", i)
		}
	}
}

// Hold in front of Gather, as a dispatcher uses it: sequential items pay
// one MaxWait hold in all, and two items queued together still gather.
func TestHoldWithGather(t *testing.T) {
	c := Coalescer{MaxBatch: 4, MaxWait: time.Millisecond}
	ch := make(chan int, 8)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var h Hold
	var group []int
	flush := func(first int) string {
		var reason string
		if h.Skip(len(ch) > 0) {
			group, reason = append(group[:0], first), FlushIdle
		} else {
			group, reason = Gather(c, first, ch, group, timer)
		}
		h.Record(len(group), reason)
		return reason
	}
	var reasons []string
	for i := 0; i < 4; i++ {
		reasons = append(reasons, flush(i))
	}
	if got := fmt.Sprint(reasons); got != "[timeout idle idle idle]" {
		t.Fatalf("sequential flush reasons = %s, want one timeout, then idle", got)
	}
	ch <- 9
	if reason := flush(8); reason != FlushTimeout || fmt.Sprint(group) != "[8 9]" {
		t.Fatalf("queued pair = %v on %s, want [8 9] gathered", group, reason)
	}
	if reason := flush(7); reason != FlushTimeout || fmt.Sprint(group) != "[7]" {
		t.Fatalf("after a pair, a lone item = %v on %s, want a timeout hold", group, reason)
	}
}

// A family's members share what a hold has learned: a new sibling follows
// the latest state the family recorded, so once one member's lone item
// has waited out MaxWait, a sibling's first item skips the hold. A
// companion already waiting still wins.
func TestHoldFamilySiblingSkipsAfterLoneTimeout(t *testing.T) {
	var fam HoldFamily
	a, b := NewHold(&fam), NewHold(&fam)
	if a.Skip(false) || b.Skip(false) {
		t.Fatal("a fresh family skips the hold; its first burst would not coalesce")
	}
	a.Record(1, FlushTimeout)
	if !b.Skip(false) {
		t.Fatal("a sibling holds after another member's lone timeout; each member pays its own hold")
	}
	if b.Skip(true) {
		t.Fatal("a sibling skips with a companion waiting")
	}
	b.Record(1, FlushIdle)
	if !b.Skip(false) {
		t.Fatal("after an idle flush that followed the family, the sibling holds again")
	}
	if c := NewHold(&fam); !c.Skip(false) {
		t.Fatal("a third sibling holds after the family went idle")
	}
}

// A sibling's group of two or more re-arms the family: a member that has
// recorded no group of its own holds again.
func TestHoldFamilyReArmedBySiblingGroup(t *testing.T) {
	var fam HoldFamily
	a, b := NewHold(&fam), NewHold(&fam)
	a.Record(1, FlushTimeout)
	b.Record(3, FlushFull)
	if c := NewHold(&fam); c.Skip(false) {
		t.Fatal("a new sibling skips after another member's group of 3 re-armed the family")
	}
	if !a.Skip(false) {
		t.Fatal("a member with its own lone timeout holds because a sibling's group re-armed the family")
	}
	a.Record(2, FlushTimeout)
	b.Record(1, FlushTimeout)
	if c := NewHold(&fam); !c.Skip(false) {
		t.Fatal("the family's latest record is a lone timeout, but a new sibling holds")
	}
}

// Once a Hold has recorded its own group it decides from its own history,
// whatever its siblings record after that.
func TestHoldOwnHistoryIgnoresFamily(t *testing.T) {
	var fam HoldFamily
	a, b := NewHold(&fam), NewHold(&fam)
	a.Record(2, FlushTimeout)
	b.Record(1, FlushTimeout)
	if a.Skip(false) {
		t.Fatal("a member armed by its own group skips after a sibling's lone timeout")
	}
	c := NewHold(&fam)
	c.Record(1, FlushIdle) // sent at once, following the idle family
	b.Record(4, FlushFull)
	if !c.Skip(false) {
		t.Fatal("a member whose own flush was idle holds after a sibling re-armed the family")
	}
	if b.Skip(false) {
		t.Fatal("a member armed by its own group of 4 skips")
	}
}

// A Hold with no family is the zero Hold: it holds until its own lone
// timeout, exactly as TestHoldSkipsAfterLoneTimeout steps it.
func TestHoldNilFamilyIsZeroValue(t *testing.T) {
	h := NewHold(nil)
	var z Hold
	for i, s := range []struct {
		n      int
		reason string
	}{{1, FlushFull}, {1, FlushDrain}, {1, FlushTimeout}, {1, FlushIdle}, {2, FlushTimeout}, {1, FlushTimeout}, {4, FlushFull}} {
		if h.Skip(false) != z.Skip(false) || h.Skip(true) != z.Skip(true) {
			t.Fatalf("step %d: NewHold(nil) and the zero Hold disagree", i)
		}
		h.Record(s.n, s.reason)
		z.Record(s.n, s.reason)
	}
	if h.Skip(false) != z.Skip(false) {
		t.Fatal("after the last step, NewHold(nil) and the zero Hold disagree")
	}
}

// A family is shared by dispatchers on separate goroutines. Each member
// ends on a group of two, so every member's last published change is
// armed, and a new member holds.
func TestHoldFamilyConcurrentSiblings(t *testing.T) {
	var fam HoldFamily
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := NewHold(&fam)
			for i := 0; i < 1000; i++ {
				h.Skip(false)
				if (i+g)%3 == 0 {
					h.Record(2, FlushTimeout)
				} else {
					h.Record(1, FlushTimeout)
				}
			}
			h.Record(2, FlushFull)
		}(g)
	}
	wg.Wait()
	if h := NewHold(&fam); h.Skip(false) {
		t.Fatal("every member ended on a group of two, but a new member skips")
	}
}
