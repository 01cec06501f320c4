package sched

import "time"

// Group-commit coalescing is the second policy the pool and the fabric
// controller share (the first is Home/LeastLoaded placement): gather up to
// MaxBatch compatible work items behind the first one, holding the group
// open for at most MaxWait, then flush — a burst flushes immediately at
// MaxBatch, a lone item waits one MaxWait and runs alone (the singleton
// fallback), and a closing queue flushes whatever is in hand. The pool
// applies it to shard rings (amortizing SKINIT + Seal/Unseal per session);
// the controller applies it to wire frames (amortizing the netsim round
// trip per session). One definition keeps the two amortization tiers
// honest about implementing the same discipline.

// Flush reasons, labeling why a gathered group was released. They are the
// label values of flicker_pool_batch_flush_total and
// flicker_fabric_batch_flush_total.
const (
	// FlushFull: the group reached MaxBatch.
	FlushFull = "full"
	// FlushTimeout: MaxWait expired with the group still short.
	FlushTimeout = "timeout"
	// FlushDrain: the queue is closing; flush what is in hand.
	FlushDrain = "drain"
)

// Coalescer is the group-commit policy knob pair.
type Coalescer struct {
	// MaxBatch is the largest group a single flush may carry. 0 or 1
	// disables coalescing entirely (every item is a singleton).
	MaxBatch int
	// MaxWait bounds how long the first item of a group is held open
	// waiting for companions.
	MaxWait time.Duration
}

// Normalize applies the shared defaults: an enabled coalescer with no
// explicit MaxWait holds groups for 1ms.
func (c Coalescer) Normalize() Coalescer {
	if c.MaxBatch > 1 && c.MaxWait <= 0 {
		c.MaxWait = time.Millisecond
	}
	return c
}

// Enabled reports whether the policy coalesces at all.
func (c Coalescer) Enabled() bool { return c.MaxBatch > 1 }

// Gather is the channel-fed gather loop (the fabric controller's dispatch
// queues are channels; the pool has its own ring-fed twin with identical
// semantics): collect up to c.MaxBatch items starting from first, holding
// the group open for at most c.MaxWait. Returns the group and its flush
// reason.
//
// The group is built in buf[:0] and the hold is timed by timer, both owned
// by the caller and reused across groups, so a steady-state gather
// allocates nothing. timer must be stopped with its channel drained; Gather
// leaves it that way. The drain is a non-blocking receive after a failed
// Stop, which is correct under both the pre-1.23 timer semantics (the
// fired value sits in the channel) and the newer ones (it never does).
func Gather[T any](c Coalescer, first T, ch <-chan T, buf []T, timer *time.Timer) ([]T, string) {
	group := append(buf[:0], first)
	if !c.Enabled() {
		return group, FlushFull
	}
	timer.Reset(c.MaxWait)
	for len(group) < c.MaxBatch {
		select {
		case item := <-ch:
			group = append(group, item)
		case <-timer.C:
			return group, FlushTimeout
		}
	}
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	return group, FlushFull
}
