package memory

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// imageByte is byte off of the test image: varied within a page and from
// page to page, and never zero.
func imageByte(off int) byte { return byte(off*31+off/PageSize)%251 + 1 }

// imageBytes returns bytes [off, off+n) of the test image.
func imageBytes(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = imageByte(off + i)
	}
	return b
}

// mapImage maps the test image at [base, base+n) and returns a count of
// the pages fill has generated.
func mapImage(t *testing.T, m *PhysMem, base uint32, n int) *atomic.Int64 {
	t.Helper()
	var fills atomic.Int64
	err := m.Map(base, n, func(off int, page *[PageSize]byte) {
		fills.Add(1)
		for i := range page {
			page[i] = imageByte(off + i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fills
}

// Mapped pages read as the image through every read path, at unaligned
// offsets and across page edges, including the edges between the image and
// the zero pages around it. Only the pages a read touches are generated.
func TestMappedPagesReadImage(t *testing.T) {
	m := New(8 * PageSize)
	fills := mapImage(t, m, PageSize, 4*PageSize)
	if n := m.ResidentPages(); n != 0 {
		t.Fatalf("Map made %d pages resident, want 0", n)
	}
	// want returns what [addr, addr+n) holds: zeros outside the image.
	want := func(addr, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			if a := addr + i; a >= PageSize && a < 5*PageSize {
				b[i] = imageByte(a - PageSize)
			}
		}
		return b
	}
	for _, c := range []struct{ addr, n, resident int }{
		{PageSize + 3, 17, 1},             // inside the first image page
		{2*PageSize - 5, 10, 2},           // across two image pages
		{PageSize - 7, 20, 2},             // from the zero page below into the image
		{5*PageSize - 9, 30, 3},           // from the image's last page out of it
		{PageSize / 2, 5 * PageSize, 4},   // the whole image and both neighbours
		{6*PageSize + 1, PageSize - 2, 4}, // wholly outside the image
	} {
		got, err := m.Read(uint32(c.addr), c.n)
		if err != nil || !bytes.Equal(got, want(c.addr, c.n)) {
			t.Fatalf("Read(%#x, %d) wrong (%v)", c.addr, c.n, err)
		}
		dst := bytes.Repeat([]byte{0xEE}, c.n)
		if err := m.ReadInto(uint32(c.addr), dst); err != nil || !bytes.Equal(dst, want(c.addr, c.n)) {
			t.Fatalf("ReadInto(%#x, %d) wrong (%v)", c.addr, c.n, err)
		}
		if got, err := m.DMARead("nic", uint32(c.addr), c.n); err != nil || !bytes.Equal(got, want(c.addr, c.n)) {
			t.Fatalf("DMARead(%#x, %d) wrong (%v)", c.addr, c.n, err)
		}
		if n := m.ResidentPages(); n != c.resident {
			t.Fatalf("after reading [%#x,+%d): %d pages resident, want %d", c.addr, c.n, n, c.resident)
		}
	}
	if n := fills.Load(); n != 4 {
		t.Fatalf("fill ran %d times, want once per image page (4)", n)
	}
}

// DMARead writes the image into its own buffer, and ReadInto into the
// caller's: a caller's stack buffer does not escape through fill, and
// reading a resident image page, or an absent page outside the image,
// allocates nothing.
func TestMappedReadAllocs(t *testing.T) {
	m := New(4 * PageSize)
	mapImage(t, m, 0, 2*PageSize)
	m.Read(0, 1) // generate page 0
	for _, addr := range []uint32{16, 3 * PageSize} {
		if n := testing.AllocsPerRun(100, func() {
			var buf [64]byte
			m.ReadInto(addr, buf[:])
		}); n != 0 {
			t.Fatalf("ReadInto(%#x) into a stack buffer allocated %v times, want 0", addr, n)
		}
	}
	if n := m.ResidentPages(); n != 1 {
		t.Fatalf("%d pages resident, want 1", n)
	}
}

// Map bumps the range's generation once, as a Write of the image would;
// generating a page on first touch changes no content and bumps nothing.
func TestMapGeneration(t *testing.T) {
	m := New(4 * PageSize)
	g0 := m.Generation(0, 4*PageSize)
	mapImage(t, m, PageSize, 2*PageSize)
	g1 := m.Generation(PageSize, 2*PageSize)
	if g1 == g0 || m.Generation(0, PageSize) != g0 || m.Generation(3*PageSize, PageSize) != g0 {
		t.Fatal("Map did not bump exactly its own range")
	}
	if _, err := m.Read(PageSize, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(PageSize, 2*PageSize); g != g1 {
		t.Fatalf("generating image pages moved the generation %d -> %d", g1, g)
	}
}

// Map is a Write whose bytes come on demand: pages the range held before
// are dropped and read as the image.
func TestMapReplacesResidentPages(t *testing.T) {
	m := New(4 * PageSize)
	if err := m.Write(PageSize+10, []byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	mapImage(t, m, PageSize, PageSize)
	if n := m.ResidentPages(); n != 0 {
		t.Fatalf("%d pages resident after Map, want 0", n)
	}
	if got, _ := m.Read(PageSize, PageSize); !bytes.Equal(got, imageBytes(0, PageSize)) {
		t.Fatal("mapped page does not read as the image")
	}
}

// A DMA transaction the DEV blocks, or one out of range, generates no image
// page, and neither does a rejected CPU access.
func TestRejectedAccessGeneratesNothing(t *testing.T) {
	m := New(4 * PageSize)
	mapImage(t, m, 0, 4*PageSize)
	if err := m.DEVProtect(PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	nic := m.AttachDevice("nic")
	if _, err := nic.Read(PageSize-8, 16); err == nil {
		t.Fatal("DEV let a DMA read through")
	}
	if err := nic.Write(PageSize+8, []byte{1}); err == nil {
		t.Fatal("DEV let a DMA write through")
	}
	if _, err := nic.Read(3*PageSize, PageSize+1); err == nil {
		t.Fatal("out-of-range DMA read accepted")
	}
	if err := nic.Write(4*PageSize-1, []byte{1, 2}); err == nil {
		t.Fatal("out-of-range DMA write accepted")
	}
	if _, err := m.Read(3*PageSize, PageSize+1); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := m.Zero(2*PageSize, 2*PageSize+1); err == nil {
		t.Fatal("out-of-range Zero accepted")
	}
	if n := m.ResidentPages(); n != 0 {
		t.Fatalf("rejected accesses made %d pages resident, want 0", n)
	}
	// A CPU read of the protected page is not filtered, and generates it.
	if got, err := m.Read(PageSize, 4); err != nil || !bytes.Equal(got, imageBytes(PageSize, 4)) {
		t.Fatalf("CPU read of a DEV-protected image page = %v, %v", got, err)
	}
}

// Zeroing an image page leaves it resident and reading zeros: the image
// does not reappear, and a second erase is generation-neutral. Zeroing part
// of a page keeps the image's bytes in the rest of it.
func TestZeroMappedPage(t *testing.T) {
	m := New(4 * PageSize)
	mapImage(t, m, 0, 4*PageSize)
	if err := m.Zero(PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if n := m.ResidentPages(); n != 1 {
		t.Fatalf("%d pages resident, want 1", n)
	}
	if got, _ := m.Read(PageSize, PageSize); !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("zeroed image page does not read as zeros")
	}
	g := m.Generation(PageSize, PageSize)
	if changed, err := m.ZeroIfDirty(PageSize, PageSize); err != nil || changed || m.Generation(PageSize, PageSize) != g {
		t.Fatalf("ZeroIfDirty of a zeroed image page = %v, %v; want no change", changed, err)
	}
	if changed, err := m.ZeroIfDirty(2*PageSize+100, 50); err != nil || !changed {
		t.Fatalf("ZeroIfDirty of image bytes = %v, %v; want a change", changed, err)
	}
	want := imageBytes(2*PageSize, PageSize)
	clear(want[100:150])
	if got, _ := m.Read(2*PageSize, PageSize); !bytes.Equal(got, want) {
		t.Fatal("partial erase of an image page lost the rest of the image")
	}
}

// Writing the image's own bytes over it is generation-neutral, and writing
// anything else bumps only the pages that differ.
func TestWriteIfChangedImageBytes(t *testing.T) {
	m := New(4 * PageSize)
	mapImage(t, m, 0, 4*PageSize)
	g0 := m.Generation(0, 4*PageSize)
	img := imageBytes(PageSize-10, 2*PageSize)
	if changed, err := m.WriteIfChanged(PageSize-10, img); err != nil || changed {
		t.Fatalf("WriteIfChanged(image bytes) = %v, %v; want no change", changed, err)
	}
	if g := m.Generation(0, 4*PageSize); g != g0 {
		t.Fatalf("writing the image's own bytes moved the generation %d -> %d", g0, g)
	}
	img[20] ^= 0xFF // byte PageSize+10: page 1 only
	if changed, err := m.WriteIfChanged(PageSize-10, img); err != nil || !changed {
		t.Fatalf("WriteIfChanged = %v, %v; want a change", changed, err)
	}
	if m.Generation(PageSize, PageSize) == g0 || m.Generation(0, PageSize) != g0 || m.Generation(2*PageSize, PageSize) != g0 {
		t.Fatal("generation bumped on the wrong pages")
	}
	if got, _ := m.Read(PageSize-10, len(img)); !bytes.Equal(got, img) {
		t.Fatal("memory does not hold the written bytes")
	}
}

func TestMapRejectsBadRanges(t *testing.T) {
	m := New(4 * PageSize)
	fill := func(int, *[PageSize]byte) { t.Fatal("fill ran for a rejected Map") }
	for _, r := range []struct {
		addr uint32
		n    int
	}{
		{1, PageSize},            // unaligned base
		{PageSize, 100},          // unaligned length
		{PageSize / 2, PageSize}, // both
		{2 * PageSize, 3 * PageSize},
	} {
		if err := m.Map(r.addr, r.n, fill); err == nil {
			t.Errorf("Map(%#x, %d) accepted", r.addr, r.n)
		}
	}
	if _, err := m.Read(0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
}

// CPU readers, DMA readers and writers race to be the first to touch the
// same image pages, released together over fresh memory in every round.
// Each page is generated exactly once, and every read sees the image, with
// byte 0 of a page either the image's or a writer's.
func TestConcurrentImageFirstTouch(t *testing.T) {
	const pages, rounds = 8, 20
	for round := 0; round < rounds; round++ {
		m := New(pages * PageSize)
		fills := mapImage(t, m, 0, pages*PageSize)
		nic := m.AttachDevice("nic")
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 5; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < pages; i++ {
					p := (i + g*3) % pages
					if err := touch(m, nic, g, p); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if n := fills.Load(); n != pages {
			t.Fatalf("fill ran %d times, want once per page (%d)", n, pages)
		}
		if n := m.ResidentPages(); n != pages {
			t.Fatalf("%d pages resident, want %d", n, pages)
		}
	}
}

// touch makes goroutine g's access to page p: a CPU or DMA write of byte 0
// for g < 2, otherwise a CPU, DMA or caller-buffer read that checks the page.
func touch(m *PhysMem, nic *Device, g, p int) error {
	addr := uint32(p * PageSize)
	img := imageBytes(p*PageSize, PageSize)
	switch g {
	case 0:
		return m.Write(addr, []byte{^img[0]})
	case 1:
		return nic.Write(addr, []byte{^img[0]})
	}
	var got []byte
	var err error
	switch g {
	case 2:
		got, err = m.Read(addr, PageSize)
	case 3:
		got, err = nic.Read(addr, PageSize)
	default:
		got = make([]byte, PageSize)
		err = m.ReadInto(addr, got)
	}
	if err != nil {
		return err
	}
	if (got[0] != img[0] && got[0] != ^img[0]) || !bytes.Equal(got[1:], img[1:]) {
		return fmt.Errorf("page %d read torn or wrong", p)
	}
	return nil
}
