package tis

import (
	"bytes"
	"testing"

	"flicker/internal/metrics"
)

// echoTPM is a trivial handler recording the locality of each command.
type echoTPM struct {
	lastLoc Locality
}

func (e *echoTPM) AppendResponse(dst []byte, loc Locality, cmd []byte) []byte {
	e.lastLoc = loc
	dst = append(dst, byte(loc))
	return append(dst, cmd...)
}

func TestRequestSubmitRelease(t *testing.T) {
	e := &echoTPM{}
	b := NewBus(e)
	if err := b.RequestUse(Locality0); err != nil {
		t.Fatal(err)
	}
	resp, err := b.Submit(Locality0, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte{0, 1, 2, 3}) {
		t.Fatalf("resp = %v", resp)
	}
	if err := b.Release(Locality0); err != nil {
		t.Fatal(err)
	}
	if b.ActiveLocality() != -1 {
		t.Fatal("interface still active after release")
	}
}

func TestSubmitWithoutClaimFails(t *testing.T) {
	b := NewBus(&echoTPM{})
	if _, err := b.Submit(Locality0, nil); err != ErrNotClaimed {
		t.Fatalf("err = %v, want ErrNotClaimed", err)
	}
	// Claimed by someone else.
	b.RequestUse(Locality1)
	if _, err := b.Submit(Locality0, nil); err != ErrNotClaimed {
		t.Fatalf("err = %v, want ErrNotClaimed", err)
	}
}

func TestHigherLocalitySeizes(t *testing.T) {
	b := NewBus(&echoTPM{})
	if err := b.RequestUse(Locality0); err != nil {
		t.Fatal(err)
	}
	// The OS (locality 0) holds the interface; SKINIT (locality 4) seizes it.
	if err := b.RequestUse(Locality4); err != nil {
		t.Fatalf("locality 4 could not seize: %v", err)
	}
	if got := b.ActiveLocality(); got != Locality4 {
		t.Fatalf("active = %v, want Locality4", got)
	}
	// The OS can no longer submit.
	if _, err := b.Submit(Locality0, nil); err == nil {
		t.Fatal("seized locality could still submit")
	}
}

func TestEqualOrLowerLocalityBlocked(t *testing.T) {
	b := NewBus(&echoTPM{})
	b.RequestUse(Locality2)
	if err := b.RequestUse(Locality2); err != ErrLocalityBusy {
		t.Fatalf("equal locality: err = %v, want busy", err)
	}
	if err := b.RequestUse(Locality1); err != ErrLocalityBusy {
		t.Fatalf("lower locality: err = %v, want busy", err)
	}
}

func TestReleaseWrongHolder(t *testing.T) {
	b := NewBus(&echoTPM{})
	b.RequestUse(Locality2)
	if err := b.Release(Locality0); err == nil {
		t.Fatal("released by non-holder")
	}
}

func TestInvalidLocality(t *testing.T) {
	b := NewBus(&echoTPM{})
	if err := b.RequestUse(Locality(9)); err == nil {
		t.Fatal("accepted invalid locality")
	}
	if Locality(-1).Valid() || Locality(5).Valid() {
		t.Fatal("Valid() wrong for out-of-range localities")
	}
}

func TestSubmitWithoutClaimCountsMetricOnce(t *testing.T) {
	b := NewBus(&echoTPM{})
	reg := metrics.NewRegistry()
	log := metrics.NewEventLog(0)
	b.Instrument(reg, log)

	if _, err := b.Submit(Locality2, nil); err != ErrNotClaimed {
		t.Fatalf("err = %v, want ErrNotClaimed", err)
	}
	submits := reg.Counter("flicker_tis_submits_total",
		"", "locality", "result")
	if got := submits.With("2", "not-claimed").Value(); got != 1 {
		t.Errorf("not-claimed counter = %v, want exactly 1", got)
	}
	if got := submits.With("2", "ok").Value(); got != 0 {
		t.Errorf("ok counter = %v, want 0", got)
	}
	faults := log.EventsByKind(metrics.EventLocalityFault)
	if len(faults) != 1 {
		t.Errorf("locality-fault events = %d, want 1: %+v", len(faults), faults)
	}
}

func TestArbitrationMetrics(t *testing.T) {
	b := NewBus(&echoTPM{})
	reg := metrics.NewRegistry()
	b.Instrument(reg, metrics.NewEventLog(0))

	b.RequestUse(Locality0) // granted
	b.RequestUse(Locality0) // busy (equal locality)
	b.RequestUse(Locality4) // granted (seize)
	b.Release(Locality0)    // fault (not the holder)
	b.Release(Locality4)    // ok

	requests := reg.Counter("flicker_tis_requests_total", "", "locality", "result")
	releases := reg.Counter("flicker_tis_releases_total", "", "locality", "result")
	for _, c := range []struct {
		vec      *metrics.CounterVec
		loc, res string
		want     float64
	}{
		{requests, "0", "granted", 1},
		{requests, "0", "busy", 1},
		{requests, "4", "granted", 1},
		{releases, "0", "fault", 1},
		{releases, "4", "ok", 1},
	} {
		if got := c.vec.With(c.loc, c.res).Value(); got != c.want {
			t.Errorf("locality %s result %s = %v, want %v", c.loc, c.res, got, c.want)
		}
	}
}

// TestSubmitToAppends checks the caller-owned response path: the response
// lands after dst's contents, in dst's backing array when it has room.
func TestSubmitToAppends(t *testing.T) {
	b := NewBus(&echoTPM{})
	buf := make([]byte, 2, 64)
	buf[0], buf[1] = 0xEE, 0xFF
	resp, err := b.SubmitAtTo(buf, Locality2, []byte{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte{0xEE, 0xFF, 2, 7, 8}) || &resp[0] != &buf[0] {
		t.Fatalf("resp = %v (want appended in place)", resp)
	}
	if _, err := b.SubmitTo(buf[:0], Locality2, []byte{1}); err != ErrNotClaimed {
		t.Fatalf("unclaimed SubmitTo: err = %v, want ErrNotClaimed", err)
	}
}

func TestSubmitAt(t *testing.T) {
	e := &echoTPM{}
	b := NewBus(e)
	resp, err := b.SubmitAt(Locality4, []byte{0xAB})
	if err != nil {
		t.Fatal(err)
	}
	if e.lastLoc != Locality4 || !bytes.Equal(resp, []byte{4, 0xAB}) {
		t.Fatalf("lastLoc=%v resp=%v", e.lastLoc, resp)
	}
	// Interface must be free afterwards.
	if b.ActiveLocality() != -1 {
		t.Fatal("SubmitAt leaked the claim")
	}
}
