package main

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// templates is how many seeded request templates a schedule holds. Runs
// cycle through them, so a schedule's memory is fixed however long the run.
const templates = 4096

// arenaLen is the size of the seeded byte arena request payloads are cut
// from.
const arenaLen = 64 << 10

// idLen is the request-id prefix every input starts with: the benchmark's
// PALs read it back to link their spans and replies to the request.
const idLen = 8

// genSpec describes one workload's request mix.
type genSpec struct {
	// PALs is the number of PAL identities requests are spread over.
	PALs int
	// HotFrac, when positive, is the share of requests for PAL 0; the rest
	// go uniformly to the others. Zero spreads requests uniformly.
	HotFrac float64
	// MinLen and MaxLen bound the input size, request id included.
	MinLen, MaxLen int
}

// schedule is a workload's seeded request stream: per request, which PAL it
// targets, its input bytes, and its unit-rate Poisson arrival offset. The
// same seed always yields the same stream.
type schedule struct {
	pal   []uint8
	size  []uint16
	off   []uint32
	at    []float64 // unit-rate arrival offset of template k within a cycle
	cycle float64   // unit-rate length of one pass over the templates
	arena []byte
}

func newSchedule(seed int64, g genSpec) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{
		pal:   make([]uint8, templates),
		size:  make([]uint16, templates),
		off:   make([]uint32, templates),
		at:    make([]float64, templates),
		arena: make([]byte, arenaLen),
	}
	rng.Read(s.arena)
	t := 0.0
	for k := 0; k < templates; k++ {
		s.at[k] = t
		t += rng.ExpFloat64()
		switch {
		case g.PALs <= 1:
			s.pal[k] = 0
		case g.HotFrac > 0 && rng.Float64() < g.HotFrac:
			s.pal[k] = 0
		case g.HotFrac > 0:
			s.pal[k] = uint8(1 + rng.Intn(g.PALs-1))
		default:
			s.pal[k] = uint8(rng.Intn(g.PALs))
		}
		n := g.MinLen + rng.Intn(g.MaxLen-g.MinLen+1)
		s.size[k] = uint16(n)
		s.off[k] = uint32(rng.Intn(arenaLen - n))
	}
	s.cycle = t
	return s
}

// request writes request i's input (its id, then the seeded payload) into
// buf's storage and returns the PAL index and the input.
func (s *schedule) request(i uint64, buf []byte) (int, []byte) {
	k := i % templates
	n := int(s.size[k])
	buf = binary.BigEndian.AppendUint64(buf[:0], i)
	o := int(s.off[k])
	return int(s.pal[k]), append(buf, s.arena[o:o+n-idLen]...)
}

// arrival is request i's arrival offset on a unit-rate (1 req/s) clock.
func (s *schedule) arrival(i uint64) float64 {
	return float64(i/templates)*s.cycle + s.at[i%templates]
}

// requestID reads the id prefix back out of an input.
func requestID(input []byte) uint64 {
	if len(input) < idLen {
		return 0
	}
	return binary.BigEndian.Uint64(input)
}

// target is one set-up system under test. do runs request id with the given
// input on PAL pal and checks the reply; it must be safe for concurrent use
// when the workload is open-loop.
type target interface {
	do(pal int, id uint64, input []byte) error
	close()
}

// loadResult is what one closed-loop repetition or open-loop step measured.
type loadResult struct {
	Attempted, Failed int
	Wall              time.Duration
	// Lat holds per-request latencies: call to reply in a closed loop, due
	// time to reply in an open loop.
	Lat    []time.Duration
	Allocs uint64
	// CPU is the process's user+system CPU time over the run.
	CPU  time.Duration
	Errs []string

	// Open loop only.
	Due        []time.Duration // each Lat sample's due time, from the run's start
	Offered    int             // arrivals due in the window
	Completed  int             // completions inside the window
	Late       []time.Duration // release time minus due time
	BacklogMid int             // released-not-completed at mid window
	BacklogEnd int             // ... and at the window's end
}

const maxErrs = 5

// add folds another run of the same kind into r (the traced run's passes).
// An open loop's due times are shifted by r's wall time so far, so the
// passes lie one after another on one timeline.
func (r *loadResult) add(l loadResult) {
	r.Lat = append(r.Lat, l.Lat...)
	for _, d := range l.Due {
		r.Due = append(r.Due, r.Wall+d)
	}
	r.Attempted += l.Attempted
	r.Failed += l.Failed
	r.Wall += l.Wall
	r.Allocs += l.Allocs
	r.CPU += l.CPU
	r.Offered += l.Offered
	r.Completed += l.Completed
	r.Late = append(r.Late, l.Late...)
	for _, e := range l.Errs {
		if len(r.Errs) < maxErrs {
			r.Errs = append(r.Errs, e)
		}
	}
}

// latencies reads p50 and p99 off a run. An open loop's p99 is the windowed
// one (see windowP99), so a freeze of the host does not decide it.
func (r *loadResult) latencies(rate float64) latencies {
	if r.Due == nil {
		return percentiles(r.Lat)
	}
	p99, ok := windowP99(r.Due, r.Lat, rate)
	l := percentiles(append([]time.Duration(nil), r.Lat...))
	l.P99, l.P99OK = p99, ok
	return l
}

func (r *loadResult) fail(err error) {
	r.Failed++
	if len(r.Errs) < maxErrs {
		r.Errs = append(r.Errs, err.Error())
	}
}

// counters snapshots the allocation count and process CPU time.
func counters() (allocs uint64, cpu time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, processCPU()
}

// runClosed drives t with one client for d, or until n requests when n > 0:
// each request is sent as soon as the previous reply arrives. It returns the
// next unused request index.
func runClosed(t target, s *schedule, first uint64, d time.Duration, n int) (loadResult, uint64) {
	var r loadResult
	buf := make([]byte, 0, 4096)
	a0, c0 := counters()
	start := time.Now()
	deadline := start.Add(d)
	i := first
	for {
		pal, in := s.request(i, buf)
		t0 := time.Now()
		if !t0.Before(deadline) || (n > 0 && r.Attempted == n) {
			break
		}
		err := t.do(pal, i, in)
		r.Lat = append(r.Lat, time.Since(t0))
		r.Attempted++
		if err != nil {
			r.fail(err)
		}
		i++
	}
	r.Wall = time.Since(start)
	a1, c1 := counters()
	r.Allocs, r.CPU = a1-a0, c1-c0
	return r, i
}

// openSlots bounds the requests in flight from the open-loop generator. The
// systems under test expose blocking calls, so each in-flight request needs
// a goroutine. 512 is above any queue the workloads configure (2 shards x
// 64, or a 4-frame window of 8 per host) and above the in-flight count of
// the fabric at its highest passing rate (about 100k req/s x 3 ms), so the
// system's own queues, not the slots, hold the backlog.
const openSlots = 512

// released is one request handed from the generator to a slot.
type released struct {
	id  uint64
	due time.Duration
}

// runOpen drives t open-loop at rate req/s for d: a single generator
// goroutine releases every request already due, then sleeps at least 1 ms,
// and a fixed set of slots sends them. Latency is timed from each request's
// due time, so a stall is charged to every request it delays. The run waits
// for every released request to complete before returning.
func runOpen(t target, s *schedule, first uint64, rate float64, d time.Duration) (loadResult, uint64) {
	// Sized to hold every arrival of a multi-second stall at the highest
	// ladder rate, so the generator itself rarely blocks on a full queue.
	ready := make(chan released, 1<<16)
	var completed atomic.Int64
	type slot struct {
		lat, due  []time.Duration
		done      int
		attempted int
		res       loadResult
	}
	slots := make([]slot, openSlots)
	var wg sync.WaitGroup
	start := time.Now()
	a0, c0 := counters()
	for k := range slots {
		wg.Add(1)
		go func(sl *slot) {
			defer wg.Done()
			buf := make([]byte, 0, 4096)
			for rq := range ready {
				pal, in := s.request(rq.id, buf)
				err := t.do(pal, rq.id, in)
				end := time.Since(start)
				completed.Add(1)
				sl.lat = append(sl.lat, end-rq.due)
				sl.due = append(sl.due, rq.due)
				sl.attempted++
				if end <= d {
					sl.done++
				}
				if err != nil {
					sl.res.fail(err)
				}
			}
		}(&slots[k])
	}

	var r loadResult
	base := s.arrival(first)
	due := func(i uint64) time.Duration {
		return time.Duration((s.arrival(i) - base) / rate * float64(time.Second))
	}
	i := first
	releasedN := 0
	mid := false
	for {
		now := time.Since(start)
		for {
			at := due(i)
			if at >= d || at > now {
				break
			}
			r.Late = append(r.Late, now-at)
			ready <- released{id: i, due: at}
			releasedN++
			i++
		}
		if !mid && now >= d/2 {
			mid = true
			r.BacklogMid = releasedN - int(completed.Load())
		}
		if now >= d {
			r.BacklogEnd = releasedN - int(completed.Load())
			break
		}
		wait := due(i) - now
		if wait > d-now {
			wait = d - now
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		time.Sleep(wait)
	}
	close(ready)
	wg.Wait()
	r.Wall = d
	a1, c1 := counters()
	r.Allocs, r.CPU = a1-a0, c1-c0
	r.Offered = releasedN
	for k := range slots {
		sl := &slots[k]
		r.Lat = append(r.Lat, sl.lat...)
		r.Due = append(r.Due, sl.due...)
		r.Completed += sl.done
		r.Attempted += sl.attempted
		r.Failed += sl.res.Failed
		for _, e := range sl.res.Errs {
			if len(r.Errs) < maxErrs {
				r.Errs = append(r.Errs, e)
			}
		}
	}
	return r, i
}
