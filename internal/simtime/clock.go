// Package simtime provides the deterministic simulated clock that underpins
// every latency measurement in the Flicker platform simulation.
//
// The paper's evaluation (Section 7) is a set of latency tables measured with
// RDTSC on real hardware. This package replaces the hardware with calibrated
// latency profiles: every simulated hardware operation (an SKINIT, a TPM
// command, a stretch of CPU work) charges time to a Clock, and the benchmark
// harness records the charges of the sessions it measures to regenerate the
// paper's rows. Because the clock is purely logical, runs are deterministic
// and fast regardless of how many simulated seconds they cover.
//
// The clock keeps no log: a charge goes to the charge hook and to every open
// Recording, and is then forgotten, so a clock's memory does not grow with
// the sessions it has timed.
package simtime

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Clock is a deterministic logical clock. Time only moves when a simulated
// component explicitly advances it. The zero value is not usable; use New.
type Clock struct {
	mu       sync.Mutex
	now      time.Duration
	noise    *noiseSource
	onCharge func(Charge)
	open     []*Recording
}

// Charge is a single latency contribution, used by the benchmark harness to
// break down session cost per operation (Tables 1, 4; Figure 9).
type Charge struct {
	At       time.Duration // simulated time at which the charge began
	Duration time.Duration
	Label    string
}

// New returns a clock starting at simulated time zero.
func New() *Clock {
	return &Clock{}
}

// NewWithNoise returns a clock whose Advance calls are perturbed by a small
// deterministic pseudo-random jitter (fraction of each charge, e.g. 0.01 for
// ±1%). The paper reports standard deviations on its measurements; noise lets
// Table 3 style experiments show realistic spread while staying reproducible.
func NewWithNoise(seed uint64, fraction float64) *Clock {
	return &Clock{noise: newNoiseSource(seed, fraction)}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d, passing a labeled charge to the hook
// and to every open Recording. It returns the charged duration (after noise,
// if enabled).
func (c *Clock) Advance(d time.Duration, label string) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %v (%s)", d, label))
	}
	c.mu.Lock()
	if c.noise != nil {
		d = c.noise.perturb(d)
	}
	ch := Charge{At: c.now, Duration: d, Label: label}
	for _, r := range c.open {
		r.charges = append(r.charges, ch)
	}
	c.now += d
	hook := c.onCharge
	c.mu.Unlock()
	if hook != nil {
		hook(ch)
	}
	return d
}

// SetOnCharge installs fn as the clock's charge hook: every Advance invokes
// it with the charge, outside the clock's lock (the hook may call Now). The
// session layer uses this to attribute charges to the currently-open
// timeline phase. Passing nil removes the hook.
func (c *Clock) SetOnCharge(fn func(Charge)) {
	c.mu.Lock()
	c.onCharge = fn
	c.mu.Unlock()
}

// Recording collects the charges a clock makes while it is open, from
// Clock.Record until Stop. Recordings may overlap; each sees every charge of
// its own window.
type Recording struct {
	c       *Clock
	charges []Charge
}

// Record opens a Recording of the charges Advance makes from now on.
func (c *Clock) Record() *Recording {
	r := &Recording{c: c}
	c.mu.Lock()
	c.open = append(c.open, r)
	c.mu.Unlock()
	return r
}

// Stop closes the recording and returns its charges in order. Stopping a
// closed recording returns the same charges again.
func (r *Recording) Stop() []Charge {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.open, r); i >= 0 {
		c.open = slices.Delete(c.open, i, i+1)
	}
	return r.charges
}

// Millis converts a duration to floating-point milliseconds, the unit the
// paper reports in.
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// FromMillis builds a duration from floating-point milliseconds.
func FromMillis(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// noiseSource is a small deterministic PRNG (xorshift64*) used only for
// latency jitter. It is not cryptographic.
type noiseSource struct {
	state    uint64
	fraction float64
}

func newNoiseSource(seed uint64, fraction float64) *noiseSource {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	if fraction < 0 {
		fraction = 0
	}
	return &noiseSource{state: seed, fraction: fraction}
}

func (n *noiseSource) next() uint64 {
	x := n.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	n.state = x
	return x * 0x2545F4914F6CDD1D
}

// perturb returns d scaled by a factor uniform in [1-fraction, 1+fraction].
func (n *noiseSource) perturb(d time.Duration) time.Duration {
	if n.fraction == 0 || d == 0 {
		return d
	}
	// Map next() to [-1, 1).
	u := float64(int64(n.next()>>11))/float64(1<<52) - 1
	scaled := float64(d) * (1 + u*n.fraction)
	if scaled < 0 {
		scaled = 0
	}
	return time.Duration(scaled)
}
