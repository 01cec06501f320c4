package memory

import (
	"bytes"
	"errors"
	"testing"
)

// scanAll concatenates the pieces Scan passes for [addr, addr+n), checking
// that no piece crosses a page boundary.
func scanAll(t *testing.T, m *PhysMem, addr uint32, n int) ([]byte, error) {
	t.Helper()
	var out []byte
	next := int(addr)
	err := m.Scan(addr, n, func(b []byte) {
		if len(b) == 0 || next/PageSize != (next+len(b)-1)/PageSize {
			t.Fatalf("Scan passed %d bytes at %#x, not one page's piece", len(b), next)
		}
		out = append(out, b...)
		next += len(b)
	})
	return out, err
}

// Scan passes exactly the bytes Read returns, over resident, absent and
// mapped image pages and the edges between them, and generates the image
// pages it touches as Read does.
func TestScanMatchesRead(t *testing.T) {
	m := New(8 * PageSize)
	// Page 1 resident, pages 2 and 3 absent, pages 4-6 a mapped image.
	if err := m.Write(PageSize+100, bytes.Repeat([]byte{0xC3}, PageSize-200)); err != nil {
		t.Fatal(err)
	}
	fills := mapImage(t, m, 4*PageSize, 3*PageSize)
	for _, c := range []struct{ addr, n, images int }{
		{PageSize + 50, 100, 0},       // inside the resident page
		{2*PageSize - 7, 20, 0},       // resident into absent
		{2*PageSize + 9, PageSize, 0}, // absent only
		{4*PageSize - 5, 10, 1},       // absent into the image
		{5*PageSize - 3, PageSize, 2}, // across two image pages
		{0, 8 * PageSize, 3},          // all of memory
		{3 * PageSize, 0, 3},          // empty
	} {
		got, err := scanAll(t, m, uint32(c.addr), c.n)
		if err != nil {
			t.Fatalf("Scan(%#x, %d): %v", c.addr, c.n, err)
		}
		want, err := m.Read(uint32(c.addr), c.n)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Scan(%#x, %d) passed other bytes than Read (%v)", c.addr, c.n, err)
		}
		if n := fills.Load(); n != int64(c.images) {
			t.Fatalf("after Scan(%#x, %d): %d image pages generated, want %d", c.addr, c.n, n, c.images)
		}
	}
	// Scanning generated no page outside the image: page 1 and the three
	// image pages are resident, the absent pages are still absent.
	if n := m.ResidentPages(); n != 4 {
		t.Fatalf("%d pages resident, want 4", n)
	}
}

// Scan checks its range as Read does and calls fn for nothing it rejects.
func TestScanRejectsOutOfRange(t *testing.T) {
	m := New(4 * PageSize)
	for _, c := range []struct {
		addr uint32
		n    int
	}{
		{4*PageSize - 4, 8},
		{4*PageSize + 1, 0},
		{0, -1},
		{0, 4*PageSize + 1},
	} {
		called := false
		err := m.Scan(c.addr, c.n, func([]byte) { called = true })
		var ae *AccessError
		if !errors.As(err, &ae) {
			t.Fatalf("Scan(%#x, %d) = %v, want an AccessError", c.addr, c.n, err)
		}
		if called {
			t.Fatalf("Scan(%#x, %d) passed bytes of a rejected range", c.addr, c.n)
		}
	}
}

// The DEV filters device traffic only: a CPU-side Scan of a DMA-excluded
// range passes its bytes, where a DMA read of it is refused.
func TestScanNotBlockedByDEV(t *testing.T) {
	m := New(4 * PageSize)
	data := bytes.Repeat([]byte{0x5A}, PageSize+16)
	if err := m.Write(PageSize-8, data); err != nil {
		t.Fatal(err)
	}
	if err := m.DEVProtect(0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DMARead("nic", PageSize-8, len(data)); err == nil {
		t.Fatal("DMA read of a DEV-protected range succeeded")
	}
	got, err := scanAll(t, m, PageSize-8, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Scan of a DEV-protected range = %v; bytes match %v", err, bytes.Equal(got, data))
	}
}

// Scan copies nothing and allocates nothing, over resident, absent and
// (generated) image pages alike, when fn does not let its captures escape.
func TestScanAllocs(t *testing.T) {
	m := New(8 * PageSize)
	if err := m.Write(0, bytes.Repeat([]byte{1}, PageSize)); err != nil {
		t.Fatal(err)
	}
	mapImage(t, m, 4*PageSize, 2*PageSize)
	var sum int
	scan := func() {
		m.Scan(100, 8*PageSize-200, func(b []byte) {
			for _, c := range b {
				sum += int(c)
			}
		})
	}
	scan() // generates the image pages
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Fatalf("Scan allocated %v times, want 0", n)
	}
	if sum == 0 {
		t.Fatal("Scan passed no bytes")
	}
}
