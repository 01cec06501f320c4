package memory

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// Pages that were never written read as zeros through every read path, and
// reading them allocates no page, even into a dirty caller buffer.
func TestUntouchedPagesReadZero(t *testing.T) {
	m := New(8 * PageSize)
	zeros := make([]byte, 3*PageSize)
	if got, err := m.Read(PageSize/2, len(zeros)); err != nil || !bytes.Equal(got, zeros) {
		t.Fatalf("Read = %v, want zeros", err)
	}
	dst := bytes.Repeat([]byte{0xAA}, len(zeros))
	if err := m.ReadInto(PageSize/2, dst); err != nil || !bytes.Equal(dst, zeros) {
		t.Fatalf("ReadInto left stale bytes (%v)", err)
	}
	if got, err := m.DMARead("nic", PageSize/2, len(zeros)); err != nil || !bytes.Equal(got, zeros) {
		t.Fatalf("DMARead = %v, want zeros", err)
	}
	if n := m.ResidentPages(); n != 0 {
		t.Fatalf("reads made %d pages resident, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.ReadInto(0, dst) }); n != 0 {
		t.Fatalf("ReadInto allocated %v times, want 0", n)
	}
}

// A read spanning a resident and an absent page returns each page's bytes.
func TestReadAcrossResidentAndAbsentPages(t *testing.T) {
	m := New(4 * PageSize)
	if err := m.Write(PageSize-2, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(PageSize-4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 1, 2, 0, 0, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("Read = %v, want %v", got, want)
	}
	if n := m.ResidentPages(); n != 1 {
		t.Fatalf("%d pages resident, want 1", n)
	}
}

// Writing zeros onto an absent page, or erasing one, changes nothing: the
// generation stays put and no page is allocated.
func TestZeroOntoAbsentPageIsNeutral(t *testing.T) {
	m := New(4 * PageSize)
	g0 := m.Generation(0, 4*PageSize)
	if changed, err := m.WriteIfChanged(100, make([]byte, 2*PageSize)); err != nil || changed {
		t.Fatalf("WriteIfChanged(zeros) = %v, %v; want no change", changed, err)
	}
	if changed, err := m.ZeroIfDirty(0, 4*PageSize); err != nil || changed {
		t.Fatalf("ZeroIfDirty = %v, %v; want no change", changed, err)
	}
	if g := m.Generation(0, 4*PageSize); g != g0 {
		t.Fatalf("generation moved %d -> %d", g0, g)
	}
	if n := m.ResidentPages(); n != 0 {
		t.Fatalf("%d pages resident, want 0", n)
	}
	// A nonzero byte in the middle page is a change to that page alone.
	img := make([]byte, 3*PageSize)
	img[PageSize+7] = 9
	if changed, err := m.WriteIfChanged(0, img); err != nil || !changed {
		t.Fatalf("WriteIfChanged = %v, %v; want a change", changed, err)
	}
	if n := m.ResidentPages(); n != 1 {
		t.Fatalf("%d pages resident, want 1", n)
	}
	if m.Generation(0, PageSize) != g0 || m.Generation(PageSize, PageSize) == g0 {
		t.Fatal("generation bumped on the wrong pages")
	}
}

// Zero always bumps the generation, of absent pages too, and allocates none.
func TestZeroBumpsAbsentPages(t *testing.T) {
	m := New(4 * PageSize)
	g0 := m.Generation(PageSize, PageSize)
	if err := m.Zero(PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(PageSize, PageSize); g == g0 {
		t.Fatal("Zero left the generation unchanged")
	}
	if n := m.ResidentPages(); n != 0 {
		t.Fatalf("%d pages resident, want 0", n)
	}
}

// A scrubbed page stays resident and holds zeros: pages are never freed, so
// the next session's write to it allocates nothing.
func TestScrubbedPageStaysResident(t *testing.T) {
	m := New(4 * PageSize)
	if err := m.Write(PageSize, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if changed, err := m.ZeroIfDirty(PageSize, PageSize); err != nil || changed {
		t.Fatalf("ZeroIfDirty after Zero = %v, %v; want no change", changed, err)
	}
	if n := m.ResidentPages(); n != 1 {
		t.Fatalf("%d pages resident, want 1", n)
	}
	if got, _ := m.Read(PageSize, PageSize); !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("scrubbed page not zero")
	}
	b := []byte("again!")
	if n := testing.AllocsPerRun(100, func() { m.Write(PageSize, b) }); n != 0 {
		t.Fatalf("rewriting a resident page allocated %v times, want 0", n)
	}
}

// A platform's 32 MB of simulated RAM costs only its page table until a
// page is written.
func TestFreshMemoryIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(32 << 20)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 256<<10 {
		t.Fatalf("fresh 32 MB PhysMem holds %d B of heap, want < 256 KB", grew)
	}
}

// CPU and DMA readers race CPU and DMA writers on pages no one has written
// yet: the first writer allocates the page under the write lock while
// readers hold the read lock. Each writer fills whole pages with one value,
// so a reader sees a page entirely zero or entirely that value.
func TestConcurrentFirstTouch(t *testing.T) {
	const pages = 16
	m := New(pages * PageSize)
	nic := m.AttachDevice("nic")
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < pages; p += 2 {
				fill := bytes.Repeat([]byte{byte(p + 1)}, PageSize)
				var err error
				if w == 0 {
					err = m.Write(uint32(p*PageSize), fill)
				} else {
					err = nic.Write(uint32(p*PageSize), fill)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 4*pages; i++ {
				p := i % pages
				var got []byte
				var err error
				if r == 0 {
					got, err = m.Read(uint32(p*PageSize), PageSize)
				} else {
					got, err = nic.Read(uint32(p*PageSize), PageSize)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if (got[0] != 0 && got[0] != byte(p+1)) || !bytes.Equal(got, bytes.Repeat(got[:1], PageSize)) {
					t.Errorf("page %d read torn or wrong: first byte %d", p, got[0])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if n := m.ResidentPages(); n != pages {
		t.Fatalf("%d pages resident, want %d", n, pages)
	}
}
