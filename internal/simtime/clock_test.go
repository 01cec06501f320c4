package simtime

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock Now() = %v, want 0", got)
	}
	if n := len(c.Record().Stop()); n != 0 {
		t.Fatalf("new clock recorded %d charges, want 0", n)
	}
}

func TestClockAdvanceAccumulates(t *testing.T) {
	c := New()
	rec := c.Record()
	c.Advance(5*time.Millisecond, "a")
	c.Advance(7*time.Millisecond, "b")
	if got, want := c.Now(), 12*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	ch := rec.Stop()
	if len(ch) != 2 {
		t.Fatalf("got %d charges, want 2", len(ch))
	}
	if ch[0].At != 0 || ch[0].Duration != 5*time.Millisecond || ch[0].Label != "a" {
		t.Errorf("charge[0] = %+v", ch[0])
	}
	if ch[1].At != 5*time.Millisecond {
		t.Errorf("charge[1].At = %v, want 5ms", ch[1].At)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	New().Advance(-time.Millisecond, "bad")
}

func TestRecordingWindow(t *testing.T) {
	c := New()
	c.Advance(time.Millisecond, "a")
	rec := c.Record()
	c.Advance(time.Millisecond, "b")
	got := rec.Stop()
	c.Advance(time.Millisecond, "c")
	if len(got) != 1 || got[0].Label != "b" || got[0].At != time.Millisecond {
		t.Fatalf("recording = %+v, want single 'b' at 1ms", got)
	}
	if again := rec.Stop(); len(again) != 1 || again[0] != got[0] {
		t.Fatalf("second Stop = %+v, want %+v", again, got)
	}
}

func TestRecordingsOverlap(t *testing.T) {
	c := New()
	outer := c.Record()
	c.Advance(time.Millisecond, "a")
	inner := c.Record()
	c.Advance(time.Millisecond, "b")
	innerCh := inner.Stop()
	c.Advance(time.Millisecond, "c")
	outerCh := outer.Stop()
	if len(innerCh) != 1 || innerCh[0].Label != "b" {
		t.Fatalf("inner = %+v, want single 'b'", innerCh)
	}
	var labels string
	for _, ch := range outerCh {
		labels += ch.Label
	}
	if labels != "abc" {
		t.Fatalf("outer labels = %q, want \"abc\"", labels)
	}
}

// The clock keeps no log: with no recording open, Advance retains nothing,
// however many charges it makes.
func TestClockKeepsNoLog(t *testing.T) {
	c := New()
	var seen int
	c.SetOnCharge(func(Charge) { seen++ })
	if n := testing.AllocsPerRun(1000, func() { c.Advance(time.Microsecond, "x") }); n != 0 {
		t.Fatalf("Advance allocated %v times per call, want 0", n)
	}
	if seen != 1001 {
		t.Fatalf("hook saw %d charges, want 1001", seen)
	}
	if n := len(c.open); n != 0 {
		t.Fatalf("%d recordings open, want 0", n)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := New()
	rec := c.Record()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Advance(time.Microsecond, "w")
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), 5000*time.Microsecond; got != want {
		t.Fatalf("concurrent total = %v, want %v", got, want)
	}
	if n := len(rec.Stop()); n != 5000 {
		t.Fatalf("recording holds %d charges, want 5000", n)
	}
}

// Recordings open and close while other goroutines advance the clock; each
// sees a gap-free run of the clock's charges.
func TestRecordingConcurrentWithAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Advance(time.Microsecond, "w")
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rec := c.Record()
				c.Advance(time.Microsecond, "r")
				ch := rec.Stop()
				for k := 1; k < len(ch); k++ {
					if ch[k].At != ch[k-1].At+ch[k-1].Duration {
						t.Errorf("recording has a gap: %+v then %+v", ch[k-1], ch[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestNoiseDeterministic(t *testing.T) {
	a := NewWithNoise(42, 0.05)
	b := NewWithNoise(42, 0.05)
	for i := 0; i < 100; i++ {
		da := a.Advance(time.Millisecond, "n")
		db := b.Advance(time.Millisecond, "n")
		if da != db {
			t.Fatalf("iteration %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
}

func TestNoiseBounded(t *testing.T) {
	c := NewWithNoise(7, 0.05)
	for i := 0; i < 1000; i++ {
		d := c.Advance(100*time.Millisecond, "n")
		lo := 94 * time.Millisecond
		hi := 106 * time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("noise out of +/-5%% + slack bounds: %v", d)
		}
	}
}

func TestNoiseZeroFraction(t *testing.T) {
	c := NewWithNoise(1, 0)
	if d := c.Advance(time.Second, "n"); d != time.Second {
		t.Fatalf("zero-fraction noise changed duration: %v", d)
	}
}

func TestMillisRoundTrip(t *testing.T) {
	f := func(msx1000 uint32) bool {
		ms := float64(msx1000) / 1000.0
		got := Millis(FromMillis(ms))
		return math.Abs(got-ms) <= 1e-6*(1+math.Abs(ms))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock's Now always equals the sum of its charges.
func TestClockSumInvariant(t *testing.T) {
	f := func(durs []uint16) bool {
		c := New()
		rec := c.Record()
		var want time.Duration
		for _, d := range durs {
			dd := time.Duration(d) * time.Microsecond
			c.Advance(dd, "p")
			want += dd
		}
		if c.Now() != want {
			return false
		}
		var sum time.Duration
		for _, ch := range rec.Stop() {
			sum += ch.Duration
		}
		return sum == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfileSkinitMatchesTable2(t *testing.T) {
	p := ProfileBroadcom()
	// Table 2 of the paper: SLB size (KB) -> SKINIT latency (ms).
	cases := []struct {
		kb   int
		want float64
		tol  float64
	}{
		{0, 0.9, 1.0}, // paper reports "0.0" (i.e., <1 ms)
		{4, 11.9, 1.0},
		{16, 45.0, 2.0},
		{32, 89.2, 2.5},
		{64, 177.5, 2.5},
	}
	for _, tc := range cases {
		got := Millis(p.SkinitCost(tc.kb * 1024))
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("SKINIT(%d KB) = %.1f ms, want %.1f +/- %.1f", tc.kb, got, tc.want, tc.tol)
		}
	}
}

func TestProfileMonotoneInSLBSize(t *testing.T) {
	for _, p := range []*Profile{ProfileBroadcom(), ProfileInfineon(), ProfileFuture()} {
		prev := time.Duration(-1)
		for kb := 0; kb <= 64; kb += 4 {
			c := p.SkinitCost(kb * 1024)
			if c <= prev {
				t.Errorf("%s: SkinitCost not strictly increasing at %d KB", p.Name, kb)
			}
			prev = c
		}
	}
}

func TestProfileOrdering(t *testing.T) {
	b, i, f := ProfileBroadcom(), ProfileInfineon(), ProfileFuture()
	if !(f.TPMQuote < i.TPMQuote && i.TPMQuote < b.TPMQuote) {
		t.Error("expected future < infineon < broadcom quote latency")
	}
	if !(f.TPMUnseal < i.TPMUnseal && i.TPMUnseal < b.TPMUnseal) {
		t.Error("expected future < infineon < broadcom unseal latency")
	}
}
