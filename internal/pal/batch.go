package pal

import "fmt"

// Batched PAL execution (the paper's Section 7.3-7.4 amortization): a PAL
// that implements BatchPAL can serve a group of requests inside ONE Flicker
// session — one SKINIT measurement, one Unseal of carried state at entry,
// one Seal at exit, N request executions. The per-session fixed costs that
// dominate Section 7's breakdowns are paid once and amortized over the
// group, while each request's reply stays independently attributable in the
// framed output region.
//
// The request loop itself is driven by internal/core (RunSessionBatch), so
// the engine can attribute per-request charges to observers, inject faults
// between requests, and preserve the abort contract (a session killed at
// request k scrubs the window and reports only the completed prefix).

// BatchReply is one request's outcome within a batched session.
type BatchReply struct {
	// Output is the request's reply bytes (nil when Err is set).
	Output []byte
	// Err is the request-level failure. A failed request does not abort
	// the batch: the remaining requests still execute and the session
	// still seals, extends, and resumes normally.
	Err error
}

// BatchPAL is the multi-request entry convention. OpenBatch runs once with
// the batch header (state shared by every request — e.g. a sealed database,
// unsealed exactly once), RunRequest runs once per request against the open
// batch context, and CloseBatch runs once after the last request; its
// return is the batch trailer (e.g. the state resealed exactly once, after
// the last request — preserving sealed-state monotonicity).
type BatchPAL interface {
	PAL
	// OpenBatch prepares shared batch state from the header. The returned
	// context is threaded through RunRequest and CloseBatch. An error here
	// fails the whole batch as a PAL-level error (no requests run).
	OpenBatch(env *Env, header []byte, n int) (any, error)
	// RunRequest executes request i. An error is recorded as that
	// request's BatchReply.Err; execution continues with request i+1.
	RunRequest(env *Env, bctx any, i int, input []byte) ([]byte, error)
	// CloseBatch finalizes the batch and returns the trailer (nil is
	// fine). An error here fails the whole session's PAL step: carried
	// state that cannot be resealed must not be silently dropped.
	CloseBatch(env *Env, bctx any) ([]byte, error)
}

// AsBatchWith returns p's batch implementation. PALs that implement
// BatchPAL are returned as-is; a plain PAL is installed in the caller-owned
// run-per-request adapter a, and a is returned. The adapter gives every
// request exactly the semantics of a singleton session body — this is what
// lets the pool coalesce arbitrary PALs without changing behavior — and a
// caller that keeps one (the session engine's per-platform scratch) adapts
// plain PALs without allocating.
func AsBatchWith(p PAL, a *PerRequest) BatchPAL {
	if bp, ok := p.(BatchPAL); ok {
		return bp
	}
	a.PAL = p
	return a
}

// PerRequest adapts a plain PAL to BatchPAL by calling Run once per
// request. It carries no cross-request state, so it accepts no header.
type PerRequest struct{ PAL }

func (r *PerRequest) OpenBatch(env *Env, header []byte, n int) (any, error) {
	if len(header) > 0 {
		return nil, fmt.Errorf("pal: %s does not accept a batch header", r.Name())
	}
	return nil, nil
}

func (r *PerRequest) RunRequest(env *Env, _ any, _ int, input []byte) ([]byte, error) {
	return r.PAL.Run(env, input)
}

func (r *PerRequest) CloseBatch(*Env, any) ([]byte, error) { return nil, nil }
