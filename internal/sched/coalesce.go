package sched

import (
	"sync/atomic"
	"time"
)

// Group-commit coalescing is the second policy the pool and the fabric
// controller share (the first is Home/LeastLoaded placement): gather up to
// MaxBatch compatible work items behind the first one, holding the group
// open for at most MaxWait, then flush. A burst flushes immediately at
// MaxBatch, and a closing queue flushes whatever is in hand. The hold adapts
// (Hold): once a lone item has waited out MaxWait without a companion, the
// next item is sent at once unless a companion is already waiting, so a
// caller that sends one item at a time pays one hold, not one per item; any
// group of two or more re-arms the hold. Sibling dispatchers share that
// evidence (HoldFamily): a dispatcher that has not yet recorded a group of
// its own follows the latest state its family recorded, so such a caller
// pays one hold per controller or pool, not one per PAL or shard. Both
// apply it through the same Gather on a channel: the pool to its shard
// queues (amortizing SKINIT + Seal/Unseal per session), the controller to
// its per-PAL dispatch queues (amortizing the netsim round trip per
// session). One definition keeps the two amortization tiers honest about
// implementing the same discipline.

// Flush reasons, labeling why a gathered group was released. They are the
// label values of flicker_pool_batch_flush_total and
// flicker_fabric_batch_flush_total.
const (
	// FlushFull: the group reached MaxBatch.
	FlushFull = "full"
	// FlushTimeout: MaxWait expired with the group still short.
	FlushTimeout = "timeout"
	// FlushDrain: the queue was closed; flush what is in hand.
	FlushDrain = "drain"
	// FlushIdle: the hold was skipped (Hold.Skip). The previous group was a
	// lone item flushed on timeout and no companion was waiting, so the item
	// was sent at once as a group of one.
	FlushIdle = "idle"
)

// Coalescer is the group-commit policy knob pair.
type Coalescer struct {
	// MaxBatch is the largest group a single flush may carry. 0 or 1
	// disables coalescing entirely (every item is a singleton).
	MaxBatch int
	// MaxWait bounds how long the first item of a group is held open
	// waiting for companions. Hold decides whether an item is held at all.
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

// Gather is the one gather loop, shared by the pool's shard workers and the
// fabric controller's dispatchers: collect up to c.MaxBatch items starting
// from first, holding the group open for at most c.MaxWait. Returns the
// group and its flush reason. A closed ch flushes what is in hand under
// FlushDrain. With coalescing disabled the group is first alone, a full
// group of one.
//
// The group is built in buf[:0] and the hold is timed by timer, both owned
// by the caller and reused across groups, so a steady-state gather
// allocates nothing. timer must be stopped with its channel drained; Gather
// leaves it that way (StopTimer).
func Gather[T any](c Coalescer, first T, ch <-chan T, buf []T, timer *time.Timer) ([]T, string) {
	group := append(buf[:0], first)
	if !c.Enabled() {
		return group, FlushFull
	}
	timer.Reset(c.MaxWait)
	for len(group) < c.MaxBatch {
		// A queued item joins the group even when the hold has already
		// expired: the timer is consulted only once the queue is empty.
		var item T
		var ok bool
		select {
		case item, ok = <-ch:
		default:
			select {
			case item, ok = <-ch:
			case <-timer.C:
				return group, FlushTimeout
			}
		}
		if !ok {
			StopTimer(timer)
			return group, FlushDrain
		}
		group = append(group, item)
	}
	StopTimer(timer)
	return group, FlushFull
}

// StopTimer stops a reused hold timer and leaves its channel drained, ready
// for the next Reset. The drain is a non-blocking receive after a failed
// Stop, which is correct under both the pre-1.23 timer semantics (the
// fired value sits in the channel) and the newer ones (it never does).
func StopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// Hold is the adaptive part of the group-commit hold: whether the next
// group's first item is held open for companions or sent at once. A hold
// that gathered no companion (a group of one flushed on timeout) shows that
// this queue's items do not arrive together, so the next item is sent at
// once when no companion is already waiting. Any group of two or more
// re-arms the hold. The rule reads only what a dispatcher observes: its
// queue, the work it has in flight and the size of its previous group, or,
// until it has recorded a group of its own, its family's latest state.
// MaxWait still bounds every hold. The zero Hold has no family and is
// holding, and so is a new family, so the first burst a dispatcher sees
// coalesces. A Hold belongs to one dispatcher and is not safe for
// concurrent use; its family is.
type Hold struct {
	fam   *HoldFamily
	state holdState
}

// holdState is a Hold's own evidence: none until it records a group, then
// armed or idle.
type holdState uint8

const (
	holdNone  holdState = iota // no group recorded: follow the family
	holdArmed                  // hold the next item for companions
	holdIdle                   // the last hold gathered no companion
)

// HoldFamily is the hold evidence that sibling dispatchers share, such as
// one fabric controller's per-PAL dispatchers or one pool's shard workers:
// the state its members last changed to. Its zero value is armed, and it is
// safe for concurrent use.
type HoldFamily struct {
	idle atomic.Bool
}

// state returns the family's latest state; a nil family is armed.
func (f *HoldFamily) state() holdState {
	if f != nil && f.idle.Load() {
		return holdIdle
	}
	return holdArmed
}

// NewHold returns a Hold in family f. Until it records a group of its own
// it follows f's latest state; f may be nil, which gives the zero Hold.
func NewHold(f *HoldFamily) Hold { return Hold{fam: f} }

// current is the state the Hold decides from: its own, or its family's
// until it has one.
func (h *Hold) current() holdState {
	if h.state == holdNone {
		return h.fam.state()
	}
	return h.state
}

// Skip reports whether to flush the next group's first item alone, at once,
// under FlushIdle instead of gathering. waiting reports whether a companion
// is already waiting: another item queued behind this one, or, where the
// dispatcher does not itself run the items it sends, another item still in
// flight, whose sender may send again.
func (h *Hold) Skip(waiting bool) bool { return !waiting && h.current() == holdIdle }

// Record notes a flushed group of n items and its flush reason. From then
// on the Hold decides from its own history, which starts at the state its
// decision followed; a change of state is published to the family.
func (h *Hold) Record(n int, reason string) {
	prev := h.current()
	next := prev
	switch {
	case n > 1:
		next = holdArmed
	case reason == FlushTimeout:
		next = holdIdle
	}
	h.state = next
	if next != prev && h.fam != nil {
		h.fam.idle.Store(next == holdIdle)
	}
}
