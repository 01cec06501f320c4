package cpu

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flicker/internal/hw/memory"
	"flicker/internal/metrics"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/slb"
	"flicker/internal/tpm"
)

// measureCounts returns the machine's measure-cache hits and misses so far.
func measureCounts(reg *metrics.Registry) (hits, misses float64) {
	s := reg.Snapshot()
	return s.Sum("flicker_skinit_measure_cache_total", "hit"), s.Sum("flicker_skinit_measure_cache_total", "miss")
}

// A cache miss hashes the SLB where it sits. Its digest is SHA-1 of the
// bytes Read returns, and the next launch of the unchanged SLB hits the
// cache with the same digest and PCR 17. The SLB spans a page that was
// never written, which the miss hashes as zeros, and a page of a mapped
// image, which it generates.
func TestMeasureInPlaceMatchesReadAndHit(t *testing.T) {
	m, tp, _ := testMachine(t, 1)
	reg := metrics.NewRegistry()
	m.Instrument(reg, nil)
	const base = 0x10000
	const length = 4*memory.PageSize + 300
	// Page 0: header and body; page 1: never written; page 2: body;
	// page 3: a mapped image; page 4: the last 300 bytes.
	hdr := make([]byte, 64)
	binary.LittleEndian.PutUint16(hdr[0:2], length)
	binary.LittleEndian.PutUint16(hdr[2:4], 4)
	for i := 4; i < len(hdr); i++ {
		hdr[i] = byte(i)
	}
	if err := m.Mem.Write(base, hdr); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(base+2*memory.PageSize+7, bytes.Repeat([]byte{0xA5}, 900)); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Map(base+3*memory.PageSize, memory.PageSize, func(off int, pg *[memory.PageSize]byte) {
		for i := range pg {
			pg[i] = byte(off+i)%253 + 1
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(base+4*memory.PageSize, bytes.Repeat([]byte{0x3C}, 300)); err != nil {
		t.Fatal(err)
	}

	var miss LateLaunch
	if err := m.SKINIT(0, base, &miss); err != nil {
		t.Fatal(err)
	}
	if hits, misses := measureCounts(reg); hits != 0 || misses != 1 {
		t.Fatalf("first launch: %v hits, %v misses; want a miss", hits, misses)
	}
	slb, err := m.Mem.Read(base, length)
	if err != nil {
		t.Fatal(err)
	}
	if want := tpm.Digest(palcrypto.SHA1Sum(slb)); miss.Measurement != want {
		t.Fatalf("in-place digest %x, SHA-1 of Read's bytes %x", miss.Measurement, want)
	}
	if want := tpm.ExtendDigest(tpm.Digest{}, miss.Measurement); miss.PCR17 != want || tp.PCRValue(17) != want {
		t.Fatal("PCR 17 after the miss is not the extend of its digest")
	}
	if err := miss.End(); err != nil {
		t.Fatal(err)
	}

	var hit LateLaunch
	if err := m.SKINIT(0, base, &hit); err != nil {
		t.Fatal(err)
	}
	if hits, misses := measureCounts(reg); hits != 1 || misses != 1 {
		t.Fatalf("second launch: %v hits, %v misses; want a hit", hits, misses)
	}
	if hit.Measurement != miss.Measurement || hit.PCR17 != miss.PCR17 {
		t.Fatalf("hit digest %x / PCR 17 %x, miss %x / %x", hit.Measurement, hit.PCR17, miss.Measurement, miss.PCR17)
	}
	hit.End()
}

// StageSLB notes each image's link-time digest, so images staged in turn at
// one base all launch from the cache, each measuring exactly itself. A raw
// write into the measured prefix after staging, even of the bytes already
// there, forces a miss that hashes what it finds; a write beyond a
// two-stage image's measured stub does not.
func TestStageSLBNotesImageDigest(t *testing.T) {
	m, tp, _ := testMachine(t, 1)
	reg := metrics.NewRegistry()
	m.Instrument(reg, nil)
	const base = 0x10000
	build := func(name string, twoStage bool) *slb.Image {
		code := slb.PALCode{Name: name, Code: bytes.Repeat([]byte(name), 2000)}
		im, err := slb.Build(code)
		if twoStage {
			im, err = slb.BuildTwoStage(code)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := im.Patch(base); err != nil {
			t.Fatal(err)
		}
		return im
	}
	launch := func(want tpm.Digest, wantHits, wantMisses float64) {
		t.Helper()
		var ll LateLaunch
		if err := m.SKINIT(0, base, &ll); err != nil {
			t.Fatal(err)
		}
		defer ll.End()
		if hits, misses := measureCounts(reg); hits != wantHits || misses != wantMisses {
			t.Fatalf("%v hits, %v misses; want %v, %v", hits, misses, wantHits, wantMisses)
		}
		if ll.Measurement != want || tp.PCRValue(17) != tpm.ExtendDigest(tpm.Digest{}, want) {
			t.Fatalf("measured %x, want %x", ll.Measurement, want)
		}
	}
	a, b, two := build("alpha", false), build("beta", false), build("gamma", true)
	for i, im := range []*slb.Image{a, b, a, two, b} {
		if err := m.StageSLB(base, im); err != nil {
			t.Fatal(err)
		}
		launch(im.Measurement(), float64(i+1), 0)
	}

	// The prefix's own bytes, rewritten raw: same digest, but hashed.
	if err := m.Mem.Write(base+100, b.Bytes()[100:200]); err != nil {
		t.Fatal(err)
	}
	launch(b.Measurement(), 5, 1)
	// A byte of the prefix changed after staging is measured.
	if err := m.StageSLB(base, a); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(base+2000, []byte{^a.Bytes()[2000]}); err != nil {
		t.Fatal(err)
	}
	tampered, err := m.Mem.Read(base, a.MeasuredLen())
	if err != nil {
		t.Fatal(err)
	}
	launch(palcrypto.SHA1Sum(tampered), 5, 2)
	// A two-stage image's PAL code lies past the measured stub, and its
	// last byte on a page the stub does not reach.
	if err := m.StageSLB(base, two); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(base+uint32(two.Len()-1), []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	launch(two.Measurement(), 6, 2)
}

// A CPU write that allocates a page of the SLB (its first touch) while
// SKINIT measures it never tears the digest and never leaves the cache
// holding a digest of bytes that are no longer there. The writer starts as
// SKINIT charges its mode switch, just before it measures, and fills the
// never-written pages of the SLB from both ends inwards (1, 7, 2, 6, ...),
// so a walk that let writes in between pages would see a set of written
// pages the writer never left behind. The measured digest must be SHA-1 of
// one of the writer's prefixes, and a launch after the writer is done must
// measure the final bytes, hit or miss. Run it under -race.
func TestMeasureRacesFirstTouchWrite(t *testing.T) {
	m, _, clock := testMachine(t, 1)
	const pages = 8
	const length = pages * memory.PageSize
	var order []int // pages 1..7, from both ends inwards
	for lo, hi := 1, pages-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, lo)
		if hi != lo {
			order = append(order, hi)
		}
	}
	// One never-written SLB window per round.
	for r := 0; r < m.Mem.Size()/SLBMaxLen-1; r++ {
		base := uint32(r * SLBMaxLen)
		img := make([]byte, length)
		binary.LittleEndian.PutUint16(img[0:2], length)
		binary.LittleEndian.PutUint16(img[2:4], 4)
		if err := m.Mem.Write(base, img[:4]); err != nil {
			t.Fatal(err)
		}
		page := func(p int) []byte { return img[p*memory.PageSize : (p+1)*memory.PageSize] }
		// Every state the SLB passes through: the header, then one more
		// page of the writer's order at a time.
		states := map[tpm.Digest]bool{palcrypto.SHA1Sum(img): true}
		for _, p := range order {
			for i := range page(p) {
				page(p)[i] = byte(p + r)
			}
			states[palcrypto.SHA1Sum(img)] = true
		}
		final := palcrypto.SHA1Sum(img)

		start := make(chan struct{})
		done := make(chan struct{})
		clock.SetOnCharge(func(c simtime.Charge) {
			if c.Label == "cpu.skinit" {
				close(start)
			}
		})
		go func() {
			defer close(done)
			<-start
			for _, p := range order {
				m.Mem.Write(base+uint32(p*memory.PageSize), page(p))
			}
		}()
		var ll LateLaunch
		err := m.SKINIT(0, base, &ll)
		clock.SetOnCharge(nil)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if !states[ll.Measurement] {
			t.Fatalf("round %d: measured %x, the digest of no state the SLB passed through", r, ll.Measurement)
		}
		ll.End()
		if err := m.SKINIT(0, base, &ll); err != nil {
			t.Fatal(err)
		}
		if ll.Measurement != final {
			t.Fatalf("round %d: launch after the writes measured %x, want the final bytes' %x", r, ll.Measurement, final)
		}
		ll.End()
	}
}

// SKINIT refuses a record that holds a running launch, on its own machine
// and on another, and leaves the record and the launch as they were.
func TestSKINITRefusesActiveRecord(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	other, _, _ := testMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	writeSLB(t, other, 0x10000, 200)
	var ll LateLaunch
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatal(err)
	}
	before := ll
	if err := m.SKINIT(0, 0x10000, &ll); err == nil {
		t.Fatal("SKINIT into an active record accepted")
	}
	if err := other.SKINIT(0, 0x10000, &ll); err == nil {
		t.Fatal("another machine's SKINIT into an active record accepted")
	}
	if other.SecureSessionActive() || other.DebugDisabled() || other.Mem.DEVProtected(0x10000, SLBMaxLen) {
		t.Fatal("the refused launch left state on its machine")
	}
	if ll != before || !ll.Active() || !m.SecureSessionActive() {
		t.Fatal("a refused SKINIT disturbed the active record")
	}
	if err := ll.End(); err != nil {
		t.Fatal(err)
	}
	// An ended record is free again.
	if err := m.SKINIT(0, 0x10000, &ll); err != nil {
		t.Fatalf("SKINIT into an ended record: %v", err)
	}
	ll.End()
}

// A record of a finished launch, a copy of a running one and the zero
// record all hold no launch: End and ExtendProtection on them fail, and a
// later launch keeps running with its protections in place.
func TestStaleRecordCannotEndLaterLaunch(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	writeSLB(t, m, 0x10000, 100)
	var first, later LateLaunch
	if err := m.SKINIT(0, 0x10000, &first); err != nil {
		t.Fatal(err)
	}
	if err := first.End(); err != nil {
		t.Fatal(err)
	}
	if err := m.SKINIT(0, 0x10000, &later); err != nil {
		t.Fatal(err)
	}
	upper := uint32(0x10000 + SLBMaxLen)
	copied := later
	for name, ll := range map[string]*LateLaunch{"finished": &first, "copied": &copied, "zero": {}} {
		if ll.Active() {
			t.Fatalf("%s record reports an active launch", name)
		}
		if err := ll.End(); err == nil {
			t.Fatalf("End on the %s record accepted", name)
		}
		if err := ll.ExtendProtection(upper, memory.PageSize); err == nil {
			t.Fatalf("ExtendProtection on the %s record accepted", name)
		}
	}
	if !later.Active() || !m.SecureSessionActive() || !m.DebugDisabled() ||
		!m.Mem.DEVProtected(0x10000, SLBMaxLen) || m.BSP().InterruptsEnabled() {
		t.Fatal("a stale record disturbed the later launch")
	}
	if m.Mem.DEVProtected(upper, memory.PageSize) {
		t.Fatal("a stale record extended the DEV")
	}
	if err := later.End(); err != nil {
		t.Fatal(err)
	}
	if m.SecureSessionActive() || m.Mem.DEVProtected(0x10000, SLBMaxLen) {
		t.Fatal("End of the later launch left it running")
	}
}

// An SLB placed less than 64 KB below the end of memory gets a DEV window
// clipped at the end of memory, and End clears that same window: the
// launch ends, and the machine can launch again.
func TestLaunchNearTopOfMemoryEnds(t *testing.T) {
	m, _, _ := testMachine(t, 1)
	base := uint32(m.Mem.Size() - 2*memory.PageSize)
	writeSLB(t, m, base, 100)
	var ll LateLaunch
	if err := m.SKINIT(0, base, &ll); err != nil {
		t.Fatal(err)
	}
	if !m.Mem.DEVProtected(base, 2*memory.PageSize) {
		t.Fatal("DEV not programmed up to the end of memory")
	}
	if err := ll.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	if m.SecureSessionActive() || m.DebugDisabled() || m.Mem.DEVProtected(base, memory.PageSize) {
		t.Fatal("End left the launch's state behind")
	}
	if err := m.SKINIT(0, base, &ll); err != nil {
		t.Fatalf("relaunch: %v", err)
	}
	ll.End()
}
