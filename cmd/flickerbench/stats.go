package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is the smallest sample count a p99 is reported from: with
// fewer, fewer than ten samples lie beyond the 99th percentile and the value
// is reported as insufficient instead of guessed.
const minTailSamples = 1000

// summary describes one metric across repetitions: the median, the first
// and third quartiles, the median absolute deviation, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	MAD    float64 `json:"mad"`
	N      int     `json:"n"`
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads this command prints match the ones an external checker computes
// from the same values. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, MAD: mad(xs), N: len(xs)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending samples: the smallest value with at least p% of the samples at
// or below it.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencies summarizes one repetition's per-request latencies.
type latencies struct {
	N   int
	P50 time.Duration
	// P99 is valid only when P99OK: a repetition with fewer than
	// minTailSamples samples has no trustworthy 99th percentile.
	P99   time.Duration
	P99OK bool
}

// sortDurations sorts d in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// percentiles sorts samples in place and reads p50 and p99 off them.
func percentiles(samples []time.Duration) latencies {
	sortDurations(samples)
	l := latencies{N: len(samples), P50: nearestRank(samples, 50)}
	if len(samples) >= minTailSamples {
		l.P99, l.P99OK = nearestRank(samples, 99), true
	}
	return l
}

// windowP99 is the median over consecutive windows of each window's p99,
// with requests assigned to windows by due time. Windows are sized to hold
// about 2000 requests at rate and at least 250 ms. A 2-vCPU shared VM
// freezes for 10-30 ms every few seconds, even when idle; such a
// freeze owns the p99 of a whole second of requests but only of one window,
// so the median over windows reads the load's own tail. Windows with fewer
// than minTailSamples requests are skipped; ok is false when none is left.
func windowP99(due, lat []time.Duration, rate float64) (p99 time.Duration, ok bool) {
	win := time.Duration(2000 / rate * float64(time.Second))
	if win < 250*time.Millisecond {
		win = 250 * time.Millisecond
	}
	buckets := map[int64][]time.Duration{}
	for i, d := range due {
		k := int64(d / win)
		buckets[k] = append(buckets[k], lat[i])
	}
	var p99s []float64
	for _, b := range buckets {
		if l := percentiles(b); l.P99OK {
			p99s = append(p99s, float64(l.P99))
		}
	}
	if len(p99s) == 0 {
		return 0, false
	}
	return time.Duration(median(p99s)), true
}

// ladderStep is one fixed-rate step of an open-loop rate ladder.
type ladderStep struct {
	Rate float64 `json:"rate_rps"`
	// Offered and Achieved are the arrivals scheduled in the step and the
	// completions during it, per second. Offered counts the seeded Poisson
	// arrivals actually due, so the pass rule is not fooled by the schedule's
	// own randomness.
	Offered  float64 `json:"offered_rps"`
	Achieved float64 `json:"achieved_rps"`
	// P99 is the step's windowed p99 (see windowP99), which the pass rule
	// judges; RawP99 is the p99 over all of the step's requests.
	P99    float64 `json:"p99_us"`
	P99OK  bool    `json:"p99_ok"`
	RawP99 float64 `json:"raw_p99_us"`
	// BacklogMid and BacklogEnd are the requests released but not yet
	// completed halfway through the step and at its end.
	BacklogMid int    `json:"backlog_mid"`
	BacklogEnd int    `json:"backlog_end"`
	Failed     int    `json:"failed"`
	Pass       bool   `json:"pass"`
	Why        string `json:"why,omitempty"`
}

// backlogSlack is how much the in-flight count may grow over the second
// half of a step, in seconds of arrivals at the step's rate, before the
// backlog counts as growing: a few milliseconds of arrivals are always in
// flight.
const backlogSlack = 0.002

// judge applies the ladder's pass rule: p99 within the limit (and measured
// from enough samples), achieved rate at least 99% of offered, a backlog
// that is not growing, and no failures.
func (s *ladderStep) judge(limit time.Duration) {
	s.Pass, s.Why = false, ""
	switch {
	case s.Failed > 0:
		s.Why = "failures"
	case !s.P99OK:
		s.Why = "too few samples for p99"
	case s.P99 > float64(limit)/float64(time.Microsecond):
		s.Why = "p99 over limit"
	case s.Achieved < 0.99*s.Offered:
		s.Why = "achieved rate below 99% of offered"
	case float64(s.BacklogEnd-s.BacklogMid) > math.Max(8, s.Rate*backlogSlack):
		s.Why = "backlog growing"
	default:
		s.Pass = true
	}
}

// maxPassingRate is the highest rate among passing steps, or 0 when none
// passed.
func maxPassingRate(steps []ladderStep) float64 {
	best := 0.0
	for _, s := range steps {
		if s.Pass && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}
