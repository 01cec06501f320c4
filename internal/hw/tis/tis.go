// Package tis simulates the TPM Interface Specification (TIS) transport:
// the memory-mapped window through which software and the chipset talk to
// the TPM. It models the parts Flicker depends on: localities (the CPU
// issues SKINIT's PCR-17 reset at locality 4, which no software can claim),
// access arbitration between the untrusted OS driver and the PAL's driver,
// and byte-level command/response framing.
package tis

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"flicker/internal/metrics"
)

// Locality identifies the privilege of the requester on the LPC bus.
type Locality int

// Localities defined by the TIS specification. Locality4 is asserted only
// by the CPU microcode during SKINIT; software cannot claim it.
const (
	Locality0 Locality = iota // legacy software (the untrusted OS)
	Locality1                 // trusted OS components
	Locality2                 // the dynamically launched environment (the PAL)
	Locality3                 // auxiliary trusted components
	Locality4                 // CPU hardware (SKINIT) only
)

// Valid reports whether l is a defined locality.
func (l Locality) Valid() bool { return l >= Locality0 && l <= Locality4 }

// Handler processes one marshaled TPM command issued at a locality and
// appends the marshaled response to dst, returning the extended slice —
// the TIS FIFO read into a buffer the driver owns. The TPM core implements
// this.
type Handler interface {
	AppendResponse(dst []byte, loc Locality, cmd []byte) []byte
}

// Bus is the TIS access-control front end in front of a Handler.
type Bus struct {
	mu      sync.Mutex
	tpm     Handler
	active  Locality
	claimed bool

	// Locality-arbitration instrumentation (see Instrument); the vecs are
	// always non-nil, detached until Instrument is called.
	metRequests *metrics.CounterVec // locality, result
	metReleases *metrics.CounterVec // locality, result
	metSubmits  *metrics.CounterVec // locality, result
	// Happy-path series resolved once per locality so the per-command grab/
	// submit/release cycle does not re-join label keys (fault paths take the
	// slow With lookup). Indexed by locality; reset by Instrument.
	okRequests [Locality4 + 1]*metrics.Counter
	okReleases [Locality4 + 1]*metrics.Counter
	okSubmits  [Locality4 + 1]*metrics.Counter
	events     *metrics.EventLog
}

// ErrLocalityBusy is returned when a different locality holds the interface.
var ErrLocalityBusy = errors.New("tis: interface held by another locality")

// ErrNotClaimed is returned when submitting a command without access.
var ErrNotClaimed = errors.New("tis: locality has not requested use")

// NewBus wraps a TPM command handler in TIS access arbitration.
func NewBus(tpm Handler) *Bus {
	b := &Bus{tpm: tpm, active: -1}
	b.Instrument(nil, nil)
	return b
}

// Instrument points the bus's locality-traffic metrics at a registry and its
// locality faults at an event log. The metric families are:
//
//	flicker_tis_requests_total{locality,result}  — grabs: granted|busy|invalid
//	flicker_tis_releases_total{locality,result}  — releases: ok|fault
//	flicker_tis_submits_total{locality,result}   — submissions: ok|not-claimed
func (b *Bus) Instrument(reg *metrics.Registry, events *metrics.EventLog) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metRequests = reg.Counter("flicker_tis_requests_total",
		"TIS locality grab attempts, by locality and arbitration result.", "locality", "result")
	b.metReleases = reg.Counter("flicker_tis_releases_total",
		"TIS locality releases, by locality and result.", "locality", "result")
	b.metSubmits = reg.Counter("flicker_tis_submits_total",
		"TPM command submissions through the TIS window, by locality and result.", "locality", "result")
	b.okRequests = [Locality4 + 1]*metrics.Counter{}
	b.okReleases = [Locality4 + 1]*metrics.Counter{}
	b.okSubmits = [Locality4 + 1]*metrics.Counter{}
	b.events = events
}

// cachedOK returns (lazily resolving) the happy-path series for a valid
// locality from cache, so series only appear in the exposition once used.
// Callers hold b.mu.
func cachedOK(cache *[Locality4 + 1]*metrics.Counter, vec *metrics.CounterVec, l Locality, result string) *metrics.Counter {
	if cache[l] == nil {
		cache[l] = vec.With(locLabel(l), result).Cell()
	}
	return cache[l]
}

// locLabel renders a locality (possibly invalid) as a metric label.
func locLabel(l Locality) string { return strconv.Itoa(int(l)) }

// RequestUse claims the interface for a locality. A higher locality can
// seize the interface from a lower one (the TIS priority rule that lets
// SKINIT's locality-4 traffic preempt the OS driver); equal or lower
// localities must wait for a release.
func (b *Bus) RequestUse(l Locality) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !l.Valid() {
		//flickervet:allow metrichandle(invalid-locality grabs are once-per-incident faults)
		b.metRequests.With(locLabel(l), "invalid").Inc()
		b.events.Record(metrics.EventLocalityFault,
			fmt.Sprintf("tis: grab with invalid locality %d", l))
		return fmt.Errorf("tis: invalid locality %d", l)
	}
	if b.claimed && l <= b.active {
		//flickervet:allow metrichandle(contended grabs are the exceptional path)
		b.metRequests.With(locLabel(l), "busy").Inc()
		b.events.Record(metrics.EventLocalityFault,
			fmt.Sprintf("tis: locality %d grab rejected; locality %d holds the interface", l, b.active))
		return ErrLocalityBusy
	}
	cachedOK(&b.okRequests, b.metRequests, l, "granted").Inc()
	b.active = l
	b.claimed = true
	return nil
}

// Release relinquishes the interface if l currently holds it.
func (b *Bus) Release(l Locality) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.claimed || b.active != l {
		//flickervet:allow metrichandle(mismatched releases are once-per-incident faults)
		b.metReleases.With(locLabel(l), "fault").Inc()
		return fmt.Errorf("tis: locality %d does not hold the interface", l)
	}
	cachedOK(&b.okReleases, b.metReleases, l, "ok").Inc()
	b.claimed = false
	b.active = -1
	return nil
}

// ActiveLocality returns the locality holding the interface, or -1.
func (b *Bus) ActiveLocality() Locality {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.claimed {
		return -1
	}
	return b.active
}

// Submit sends a marshaled command at locality l and returns the response
// in a fresh buffer. The locality must hold the interface.
func (b *Bus) Submit(l Locality, cmd []byte) ([]byte, error) {
	return b.SubmitTo(nil, l, cmd)
}

// SubmitTo is Submit with the response appended to dst, so a driver that
// keeps one response buffer reads every response without allocating.
func (b *Bus) SubmitTo(dst []byte, l Locality, cmd []byte) ([]byte, error) {
	b.mu.Lock()
	if !b.claimed || b.active != l {
		//flickervet:allow metrichandle(unclaimed submits are once-per-incident faults)
		b.metSubmits.With(locLabel(l), "not-claimed").Inc()
		b.events.Record(metrics.EventLocalityFault,
			fmt.Sprintf("tis: submit at locality %d without holding the interface", l))
		b.mu.Unlock()
		return nil, ErrNotClaimed
	}
	cachedOK(&b.okSubmits, b.metSubmits, l, "ok").Inc()
	b.mu.Unlock()
	return b.tpm.AppendResponse(dst, l, cmd), nil
}

// SubmitAt is a convenience that claims, submits, and releases in one call;
// hardware paths (SKINIT) use it since their access cannot be contended.
func (b *Bus) SubmitAt(l Locality, cmd []byte) ([]byte, error) {
	return b.SubmitAtTo(nil, l, cmd)
}

// SubmitAtTo is SubmitAt with the response appended to dst.
func (b *Bus) SubmitAtTo(dst []byte, l Locality, cmd []byte) ([]byte, error) {
	if err := b.RequestUse(l); err != nil {
		return nil, err
	}
	defer b.Release(l)
	return b.SubmitTo(dst, l, cmd)
}
