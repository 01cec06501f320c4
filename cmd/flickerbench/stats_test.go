package main

import (
	"math"
	"testing"
	"time"
)

func TestSummaryMatchesPythonQuantiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same data.
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
		mad            float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5, 1},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 1},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 1},
		{[]float64{10, 20}, 7.5, 15, 22.5, 5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25, 1.5},
		{[]float64{7.5, 7.1, 7.9, 8.4, 6.8, 7.2, 7.7}, 7.1, 7.5, 7.9, 0.4},
		{[]float64{42}, 42, 42, 42, 0},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for _, c := range cases {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) || !near(s.MAD, c.mad) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v mad %v", c.xs, s, c.q1, c.median, c.q3, c.mad)
		}
	}
	if s := summarize(nil); !math.IsNaN(s.Median) {
		t.Errorf("summarize(nil).Median = %v, want NaN", s.Median)
	}
	if got := summarize([]float64{1, 2, 3, 4, 5}).spread(); !near(got, 1) {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func ms(v ...int) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, x := range v {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func TestNearestRank(t *testing.T) {
	sorted := ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 5 * time.Millisecond},
		{51, 6 * time.Millisecond},
		{90, 9 * time.Millisecond},
		{99, 10 * time.Millisecond},
		{100, 10 * time.Millisecond},
		{1, time.Millisecond},
	}
	for _, c := range cases {
		if got := nearestRank(sorted, c.p); got != c.want {
			t.Errorf("nearestRank(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 99); got != 0 {
		t.Errorf("nearestRank(empty) = %v, want 0", got)
	}
}

func TestPercentilesReportInsufficientTail(t *testing.T) {
	cases := []struct {
		n      int
		p99OK  bool
		p50    time.Duration
		p99    time.Duration
		reason string
	}{
		{minTailSamples - 1, false, 500 * time.Microsecond, 0, "one short of the minimum"},
		{minTailSamples, true, 500 * time.Microsecond, 990 * time.Microsecond, "exactly the minimum"},
		{10 * minTailSamples, true, 5000 * time.Microsecond, 9900 * time.Microsecond, "well above"},
	}
	for _, c := range cases {
		// Samples 1..n microseconds, shuffled by reversal.
		s := make([]time.Duration, c.n)
		for i := range s {
			s[i] = time.Duration(c.n-i) * time.Microsecond
		}
		l := percentiles(s)
		if l.P99OK != c.p99OK || l.N != c.n || l.P50 != c.p50 {
			t.Errorf("%s: P99OK = %v, p50 %v (n %d), want %v, %v", c.reason, l.P99OK, l.P50, l.N, c.p99OK, c.p50)
		}
		if c.p99OK && l.P99 != c.p99 {
			t.Errorf("%s: p99 = %v, want %v", c.reason, l.P99, c.p99)
		}
		if !c.p99OK && l.P99 != 0 {
			t.Errorf("%s: insufficient p99 reported a value %v", c.reason, l.P99)
		}
	}
}

func TestWindowP99IgnoresOneFrozenWindow(t *testing.T) {
	// 8000 req/s for 4 s: 16 windows of 250 ms, 2000 requests each. A 50 ms
	// host freeze delays 400 requests, 1.25% of the run, all in one window.
	const rate = 8000
	var due, lat []time.Duration
	for i := 0; i < 4*rate; i++ {
		d := time.Duration(i) * time.Second / rate
		l := time.Millisecond
		if d >= 1000*time.Millisecond && d < 1050*time.Millisecond {
			l = 50 * time.Millisecond
		}
		due, lat = append(due, d), append(lat, l)
	}
	all := percentiles(append([]time.Duration(nil), lat...))
	if all.P99 != 50*time.Millisecond {
		t.Fatalf("test premise: the freeze should own the whole run's p99, got %v", all.P99)
	}
	got, ok := windowP99(due, lat, rate)
	if !ok || got != time.Millisecond {
		t.Errorf("windowP99 = %v, %v; want 1ms, true", got, ok)
	}
	if _, ok := windowP99(due[:500], lat[:500], rate); ok {
		t.Error("windowP99 over 500 samples reported a value")
	}
}

func TestLadderStepRule(t *testing.T) {
	limit := 5 * time.Millisecond
	good := ladderStep{Rate: 8000, Offered: 8050, Achieved: 8040, P99: 1800, P99OK: true, BacklogMid: 12, BacklogEnd: 15}
	cases := []struct {
		name   string
		mutate func(*ladderStep)
		pass   bool
		why    string
	}{
		{"healthy", func(*ladderStep) {}, true, ""},
		{"p99 at the limit", func(s *ladderStep) { s.P99 = 5000 }, true, ""},
		{"p99 over", func(s *ladderStep) { s.P99 = 5001 }, false, "p99 over limit"},
		{"p99 unmeasured", func(s *ladderStep) { s.P99OK = false }, false, "too few samples for p99"},
		{"behind offered", func(s *ladderStep) { s.Achieved = 0.98 * s.Offered }, false, "achieved rate below 99% of offered"},
		{"backlog within slack", func(s *ladderStep) { s.BacklogEnd = s.BacklogMid + 16 }, true, ""},
		{"backlog growing", func(s *ladderStep) { s.BacklogEnd = s.BacklogMid + 17 }, false, "backlog growing"},
		{"a failure", func(s *ladderStep) { s.Failed = 1 }, false, "failures"},
	}
	for _, c := range cases {
		s := good
		c.mutate(&s)
		s.judge(limit)
		if s.Pass != c.pass || s.Why != c.why {
			t.Errorf("%s: pass %v (%q), want %v (%q)", c.name, s.Pass, s.Why, c.pass, c.why)
		}
	}
}

func TestMaxPassingRate(t *testing.T) {
	// Bisection probes out of order; the answer is the highest passing rate.
	steps := []ladderStep{{Rate: 12000, Pass: true}, {Rate: 16000, Pass: false}, {Rate: 14000, Pass: true}, {Rate: 15000, Pass: false}}
	if got := maxPassingRate(steps); got != 14000 {
		t.Errorf("maxPassingRate = %v, want 14000", got)
	}
	if got := maxPassingRate([]ladderStep{{Rate: 8000}}); got != 0 {
		t.Errorf("maxPassingRate with no pass = %v, want 0", got)
	}
}
