package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	spec := genSpec{PALs: 8, HotFrac: 0.75, MinLen: idLen, MaxLen: idLen + 256}
	a, b, c := newSchedule(7, spec), newSchedule(7, spec), newSchedule(8, spec)
	bufA, bufB, bufC := make([]byte, 0, 512), make([]byte, 0, 512), make([]byte, 0, 512)
	differs := false
	// Past one pass over the templates, so the cycling is covered too.
	for i := uint64(0); i < 2*templates+10; i++ {
		palA, inA := a.request(i, bufA)
		palB, inB := b.request(i, bufB)
		if palA != palB || !bytes.Equal(inA, inB) || a.arrival(i) != b.arrival(i) {
			t.Fatalf("request %d differs between two schedules with seed 7", i)
		}
		palC, inC := c.request(i, bufC)
		if palA != palC || !bytes.Equal(inA, inC) || a.arrival(i) != c.arrival(i) {
			differs = true
		}
		if i > 0 && a.arrival(i) <= a.arrival(i-1) {
			t.Fatalf("arrival %d (%v) not after %d (%v)", i, a.arrival(i), i-1, a.arrival(i-1))
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 gave identical schedules")
	}
}

func TestScheduleShape(t *testing.T) {
	spec := genSpec{PALs: 8, HotFrac: 0.75, MinLen: idLen, MaxLen: idLen + 256}
	s := newSchedule(1, spec)
	buf := make([]byte, 0, 512)
	hot := 0
	const n = templates
	for i := uint64(0); i < n; i++ {
		pal, in := s.request(i, buf)
		if pal < 0 || pal >= spec.PALs {
			t.Fatalf("request %d: PAL %d out of range", i, pal)
		}
		if len(in) < spec.MinLen || len(in) > spec.MaxLen {
			t.Fatalf("request %d: %d-byte input outside [%d, %d]", i, len(in), spec.MinLen, spec.MaxLen)
		}
		if requestID(in) != i {
			t.Fatalf("request %d carries id %d", i, requestID(in))
		}
		if pal == 0 {
			hot++
		}
	}
	if frac := float64(hot) / n; math.Abs(frac-0.75) > 0.03 {
		t.Errorf("hot PAL share %.3f, want about 0.75", frac)
	}
	// Unit-rate Poisson arrivals: the mean gap is about 1.
	if mean := s.cycle / templates; math.Abs(mean-1) > 0.05 {
		t.Errorf("mean unit-rate gap %.3f, want about 1", mean)
	}
}

// TestAddPoolsPasses: passes too short for a p99 each give one when folded
// together, and an open loop's due times follow on from the passes before.
func TestAddPoolsPasses(t *testing.T) {
	pass := func(n int, open bool) loadResult {
		l := loadResult{Attempted: n, Wall: time.Second}
		for i := 0; i < n; i++ {
			l.Lat = append(l.Lat, time.Duration(i+1)*time.Microsecond)
			if open {
				l.Due = append(l.Due, time.Duration(i)*time.Second/time.Duration(n))
			}
		}
		return l
	}
	var closed loadResult
	for k := 0; k < 4; k++ {
		p := pass(600, false)
		if p.latencies(0).P99OK {
			t.Fatal("a 600-sample pass gave a p99")
		}
		closed.add(p)
	}
	if l := closed.latencies(0); !l.P99OK || l.N != 2400 {
		t.Errorf("4 pooled passes: p99 ok %v over %d samples, want a p99 over 2400", l.P99OK, l.N)
	}

	var open loadResult
	open.add(pass(1000, true))
	open.add(pass(1000, true))
	if got := open.Due[1000]; got != time.Second {
		t.Errorf("second pass's first due time %v, want 1s", got)
	}
	if _, ok := windowP99(open.Due, open.Lat, 1000); !ok {
		t.Error("pooled open-loop passes gave no windowed p99")
	}
}
