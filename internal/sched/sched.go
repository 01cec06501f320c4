// Package sched is the routing core shared by the single-process session
// pool (internal/pool) and the controller of the attestation fabric
// (internal/fabric): key-affinity placement with least-loaded spill, and
// group-commit coalescing whose hold adapts to its queue (coalesce.go).
//
// The policy is the one the pool grew for PAL routing — a PAL's name hashes
// to a home target, so repeat sessions land where the SLB image cache and
// SKINIT measurement cache are already warm for it, and an overloaded home
// spills to the least-loaded target. Extracting it lets the fabric
// controller apply the identical policy across hosts instead of shards,
// so a PAL keeps one warm home whether the fleet is in-process or
// distributed.
//
// The package is deliberately allocation-free: Home is a pure hash and
// LeastLoaded walks loads through a callback, so the pool's submit path
// and the controller's dispatch path, which each compose the two with
// their own notion of a full target, can call them without feeding the GC.
package sched

// Home returns the affinity index for key among n targets: FNV-1a over the
// key, modulo n. It is deterministic across processes and runs, so a
// controller and its hosts agree on placement without coordination.
// n must be > 0.
func Home(key string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// LeastLoaded returns the index in [0, n) with the smallest load, asking
// load(i) for each candidate. Ties resolve to the lowest index, so the
// choice is deterministic. n must be > 0.
func LeastLoaded(n int, load func(i int) int64) int {
	best, bestLoad := 0, load(0)
	for i := 1; i < n; i++ {
		if l := load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}
