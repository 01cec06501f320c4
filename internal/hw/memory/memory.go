// Package memory simulates the platform's physical memory system: a sparse
// physical address space, the Device Exclusion Vector (DEV) that SKINIT
// programs to block DMA into the Secure Loader Block, and DMA-capable
// devices that issue bus transactions.
//
// The adversary model of the paper (Section 3.1) explicitly includes
// malicious DMA-capable expansion cards; this package lets tests mount that
// attack and observe that the DEV defeats it.
package memory

import (
	"bytes"
	"fmt"
	"sync"

	"flicker/internal/metrics"
)

// PageSize is the size of a physical page; the DEV protects memory at page
// granularity, as on real SVM hardware.
const PageSize = 4096

// PhysMem is the machine's physical memory: a byte-addressable page table
// plus the DEV. All accesses go through accessor methods so protection can
// be enforced uniformly for CPU-originated and device-originated traffic.
//
// RAM is sparse. A page that was never written is nil and reads as zeros;
// the first CPU or DMA write allocates it, and it stays resident from then
// on, so a platform's heap follows the pages its sessions touch (the SLB
// window and a few parameter pages) rather than its simulated RAM size, and
// warm sessions allocate nothing. Reads, which run under the read lock,
// never allocate a page, except inside a mapped image (see Map): an absent
// image page is generated on its first touch, read or write, under the
// write lock, and is an ordinary resident page from then on.
type PhysMem struct {
	mu     sync.RWMutex
	pages  []*[PageSize]byte // nil = never touched; reads as zeros, or as its image
	dev    []bool            // one bit per page; true = DMA excluded
	images []image           // mapped ranges, newest last

	// Write-generation tracking: writeSeq is a monotonic mutation counter
	// and pageGen[p] records the writeSeq of the last mutation touching
	// page p. Generation(addr, n) folds these into a cheap fingerprint of
	// "has anything in this range been written since?", which is what lets
	// SKINIT memoize the measurement of an unchanged staged SLB while any
	// CPU write, DMA write, or zeroing into the range forces a re-hash.
	writeSeq uint64
	pageGen  []uint64

	// DMA instrumentation (see Instrument); always non-nil, detached until
	// Instrument is called. imu guards the pointers so Instrument does not
	// race with in-flight transactions.
	imu          sync.Mutex
	metDMA       *metrics.CounterVec // device, op, result
	metDMABytes  *metrics.CounterVec // device, op
	metDEVBlocks *metrics.CounterVec // device, op
	// dmaOK caches the ok-path series handles per (device, op): DMA streams
	// thousands of transactions per session, and the device/op vocabulary is
	// a handful of names, so the hot path must not re-join label keys.
	dmaOK  map[[2]string]dmaOKHandles
	events *metrics.EventLog
}

// dmaOKHandles are one (device, op) pair's resolved completed-DMA series.
type dmaOKHandles struct {
	txn   *metrics.Counter
	bytes *metrics.Counter
}

// New creates a physical memory of the given size (rounded up to a page).
func New(size int) *PhysMem {
	if size <= 0 {
		panic("memory: non-positive size")
	}
	pages := (size + PageSize - 1) / PageSize
	m := &PhysMem{
		pages:   make([]*[PageSize]byte, pages),
		dev:     make([]bool, pages),
		pageGen: make([]uint64, pages),
	}
	m.Instrument(nil, nil)
	return m
}

// Instrument points the memory system's DMA metrics at a registry and its
// DEV violations at an event log. The metric families are:
//
//	flicker_dma_transactions_total{device,op,result} — ok|dev-blocked|bad-range
//	flicker_dma_bytes_total{device,op}               — bytes moved by completed DMA
//	flicker_dev_violations_total{device,op}          — transactions the DEV rejected
func (m *PhysMem) Instrument(reg *metrics.Registry, events *metrics.EventLog) {
	m.imu.Lock()
	defer m.imu.Unlock()
	m.metDMA = reg.Counter("flicker_dma_transactions_total",
		"Device DMA transactions, by device, direction, and outcome.", "device", "op", "result")
	m.metDMABytes = reg.Counter("flicker_dma_bytes_total",
		"Bytes moved by completed device DMA transactions.", "device", "op")
	m.metDEVBlocks = reg.Counter("flicker_dev_violations_total",
		"Device DMA transactions rejected by the Device Exclusion Vector.", "device", "op")
	m.dmaOK = make(map[[2]string]dmaOKHandles)
	m.events = events
}

// recordDMA folds one device transaction into the instruments; result is
// "ok", "dev-blocked", or "bad-range". Completed transactions (the hot
// path) go through handles cached per (device, op); rejections are
// once-per-incident fault paths.
func (m *PhysMem) recordDMA(device, op, result string, n int) {
	m.imu.Lock()
	if result == "ok" {
		key := [2]string{device, op}
		h, ok := m.dmaOK[key]
		if !ok {
			h = dmaOKHandles{
				txn:   m.metDMA.With(device, op, "ok").Cell(),
				bytes: m.metDMABytes.With(device, op).Cell(),
			}
			m.dmaOK[key] = h
		}
		m.imu.Unlock()
		h.txn.Inc()
		h.bytes.Add(float64(n))
		return
	}
	dma, blocks, events := m.metDMA, m.metDEVBlocks, m.events
	m.imu.Unlock()
	//flickervet:allow metrichandle(DEV rejections and bad ranges are once-per-incident fault paths)
	dma.With(device, op, result).Inc()
	if result == "dev-blocked" {
		//flickervet:allow metrichandle(same fault path as above)
		blocks.With(device, op).Inc()
		events.Record(metrics.EventDEVViolation,
			fmt.Sprintf("memory: DEV blocked DMA %s by %q (%d bytes)", op, device, n))
	}
}

// Size returns the size of physical memory in bytes.
func (m *PhysMem) Size() int {
	return len(m.pages) * PageSize
}

// ResidentPages returns how many pages hold an allocated backing array:
// every page ever written, zeroed, or touched inside a mapped image. Pages
// are never freed, except that Map drops the resident pages it covers.
func (m *PhysMem) ResidentPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// AccessError describes a rejected memory transaction.
type AccessError struct {
	Addr   uint32
	Len    int
	Reason string
}

// Error describes the rejected transaction.
func (e *AccessError) Error() string {
	return fmt.Sprintf("memory: access [%#x,+%d) rejected: %s", e.Addr, e.Len, e.Reason)
}

func (m *PhysMem) checkRange(addr uint32, n int) error {
	if n < 0 || int(addr) > m.Size() || int(addr)+n > m.Size() {
		return &AccessError{Addr: addr, Len: n, Reason: "out of physical memory"}
	}
	return nil
}

// image is a page-aligned range of memory whose absent pages hold fill's
// bytes rather than zeros.
type image struct {
	first, end int // pages [first, end)
	fill       func(off int, page *[PageSize]byte)
}

// Map places a lazily generated image at [addr, addr+n), which must be
// page-aligned: an absent page at byte off of the range holds the bytes
// fill writes into a fresh zeroed page given off. fill runs on the page's
// first touch (any read, write or zeroing of it) under the write lock, and
// must write only into the page it is given. Map is a Write whose bytes are
// produced on demand: it drops the range's resident pages and bumps its
// write generation once, and generating a page later bumps nothing.
func (m *PhysMem) Map(addr uint32, n int, fill func(off int, page *[PageSize]byte)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	if addr%PageSize != 0 || n%PageSize != 0 {
		return &AccessError{Addr: addr, Len: n, Reason: "image not page-aligned"}
	}
	first, end := pageRange(addr, n)
	clear(m.pages[first:end])
	m.images = append(m.images, image{first, end, fill})
	m.bumpLocked(addr, n)
	return nil
}

// imageAt returns the newest image covering page p, or nil.
func (m *PhysMem) imageAt(p int) *image {
	for i := len(m.images) - 1; i >= 0; i-- {
		if img := &m.images[i]; p >= img.first && p < img.end {
			return img
		}
	}
	return nil
}

// faultLocked returns page p, generating it first if it is an absent image
// page; an absent page outside every image stays nil. Callers hold m.mu for
// writing.
func (m *PhysMem) faultLocked(p int) *[PageSize]byte {
	if m.pages[p] == nil {
		if img := m.imageAt(p); img != nil {
			pg := new([PageSize]byte)
			img.fill((p-img.first)*PageSize, pg)
			m.pages[p] = pg
		}
	}
	return m.pages[p]
}

// rlock takes the read lock with every image page of [addr, addr+n)
// resident, generating absent ones under the write lock first. A range the
// caller will reject (out of memory, or DEV-blocked for a DMA read) has
// nothing generated.
func (m *PhysMem) rlock(addr uint32, n int, dma bool) {
	m.mu.RLock()
	if m.checkRange(addr, n) != nil || dma && m.devBlocks(addr, n) {
		return
	}
	first, end := pageRange(addr, n)
	for p := first; p < end; p++ {
		if m.pages[p] == nil && m.imageAt(p) != nil {
			m.mu.RUnlock()
			m.mu.Lock()
			for ; p < end; p++ {
				m.faultLocked(p)
			}
			m.mu.Unlock()
			m.mu.RLock()
			return
		}
	}
}

// Read copies n bytes starting at addr. CPU-originated reads are never
// blocked by the DEV (the DEV filters only device traffic).
func (m *PhysMem) Read(addr uint32, n int) ([]byte, error) {
	m.rlock(addr, n, false)
	defer m.mu.RUnlock()
	if err := m.checkRange(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	m.readLocked(addr, out)
	return out, nil
}

// ReadInto copies len(dst) bytes starting at addr into dst: Read for a
// caller that owns the buffer, such as the fixed-size SLB and input-page
// headers read on every session.
func (m *PhysMem) ReadInto(addr uint32, dst []byte) error {
	m.rlock(addr, len(dst), false)
	defer m.mu.RUnlock()
	if err := m.checkRange(addr, len(dst)); err != nil {
		return err
	}
	m.readLocked(addr, dst)
	return nil
}

// Scan passes the n bytes at addr to fn in address order, one piece per
// page, without copying them: ReadInto for a caller that only streams the
// bytes, such as SKINIT hashing the SLB where it sits. It takes the same
// read lock and range check as Read, an image page is generated on its
// first touch as it is for Read, and an absent page is passed as the
// shared zero page. Like every CPU-originated read it is never blocked by
// the DEV. fn runs under the read lock: it must not modify or keep the
// slice, and must not call back into the memory.
func (m *PhysMem) Scan(addr uint32, n int, fn func([]byte)) error {
	m.rlock(addr, n, false)
	defer m.mu.RUnlock()
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	for off := 0; off < n; {
		p, lo, k := span(addr, n, off)
		if pg := m.pages[p]; pg != nil {
			fn(pg[lo : lo+k])
		} else {
			fn(zeroPage[:k])
		}
		off += k
	}
	return nil
}

// span splits the run of n bytes at addr at its off'th byte into the page
// holding that byte, the run's offset lo into it, and the length k of the
// run's part in that page. Callers step off by k.
func span(addr uint32, n, off int) (p, lo, k int) {
	a := int(addr) + off
	p, lo = a/PageSize, a%PageSize
	return p, lo, min(PageSize-lo, n-off)
}

// readLocked copies len(dst) bytes at addr into dst, absent pages as zeros.
// Callers hold m.mu (read or write), have validated the range and have
// made its image pages resident.
func (m *PhysMem) readLocked(addr uint32, dst []byte) {
	for off := 0; off < len(dst); {
		p, lo, k := span(addr, len(dst), off)
		if pg := m.pages[p]; pg != nil {
			copy(dst[off:off+k], pg[lo:])
		} else {
			clear(dst[off : off+k])
		}
		off += k
	}
}

// pageLocked returns page p for a write, generating it from its image or
// allocating it zeroed on its first touch. Callers hold m.mu for writing.
func (m *PhysMem) pageLocked(p int) *[PageSize]byte {
	if m.faultLocked(p) == nil {
		m.pages[p] = new([PageSize]byte)
	}
	return m.pages[p]
}

// writeLocked stores b at addr and bumps the generation of the pages it
// covers. Callers hold m.mu for writing and have validated the range.
func (m *PhysMem) writeLocked(addr uint32, b []byte) {
	for off := 0; off < len(b); {
		p, lo, k := span(addr, len(b), off)
		copy(m.pageLocked(p)[lo:], b[off:off+k])
		off += k
	}
	m.bumpLocked(addr, len(b))
}

// pageRange returns the pages [first, end) that the n bytes at addr cover;
// an empty range covers none, not the page holding addr-1.
func pageRange(addr uint32, n int) (first, end int) {
	if n <= 0 {
		return 0, 0
	}
	return int(addr) / PageSize, (int(addr)+n-1)/PageSize + 1
}

// bumpLocked marks the pages covering [addr, addr+n) as mutated. Callers
// hold m.mu and have validated the range.
func (m *PhysMem) bumpLocked(addr uint32, n int) {
	if n <= 0 {
		return
	}
	m.writeSeq++
	first, end := pageRange(addr, n)
	for p := first; p < end; p++ {
		m.pageGen[p] = m.writeSeq
	}
}

// Generation returns a fingerprint of the write history of [addr, addr+n):
// the highest mutation sequence number recorded for any page the range
// touches. Two calls return the same value iff no Write, Zero, or DMA write
// has landed on any covered page in between (writeSeq is monotonic, so the
// maximum can never repeat across an intervening mutation). An invalid or
// empty range returns 0.
func (m *PhysMem) Generation(addr uint32, n int) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.generationLocked(addr, n)
}

// generationLocked is Generation for a caller holding m.mu.
func (m *PhysMem) generationLocked(addr uint32, n int) uint64 {
	if m.checkRange(addr, n) != nil {
		return 0
	}
	var g uint64
	first, end := pageRange(addr, n)
	for p := first; p < end; p++ {
		if m.pageGen[p] > g {
			g = m.pageGen[p]
		}
	}
	return g
}

// Write stores b at addr (CPU-originated).
func (m *PhysMem) Write(addr uint32, b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, len(b)); err != nil {
		return err
	}
	m.writeLocked(addr, b)
	return nil
}

// WriteIfChanged stores b at addr like Write, but compares page by page
// first and only copies (and bumps the write generation of) pages whose
// content actually differs. Placing an identical staged image is therefore
// generation-neutral, which is what keeps SKINIT's measurement cache warm
// across back-to-back sessions of the same PAL. Zeros written onto an
// absent page change nothing and allocate nothing; an absent image page is
// compared against its image's bytes.
func (m *PhysMem) WriteIfChanged(addr uint32, b []byte) (changed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, len(b)); err != nil {
		return false, err
	}
	return m.writeIfChangedLocked(addr, b), nil
}

// WriteIfChangedGen is WriteIfChanged returning, instead of whether anything
// changed, the Generation of the first n bytes at addr once all of b is
// stored. The generation is sampled under the lock the store holds, so no
// other write can land between the two: a caller that knows what b's first
// n bytes hash to may memoize that digest under the returned generation.
func (m *PhysMem) WriteIfChangedGen(addr uint32, b []byte, n int) (gen uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, len(b)); err != nil {
		return 0, err
	}
	m.writeIfChangedLocked(addr, b)
	return m.generationLocked(addr, n), nil
}

// writeIfChangedLocked is WriteIfChanged's store. Callers hold m.mu for
// writing and have validated the range.
func (m *PhysMem) writeIfChangedLocked(addr uint32, b []byte) (changed bool) {
	for off := 0; off < len(b); {
		p, lo, k := span(addr, len(b), off)
		chunk := b[off : off+k]
		var same bool
		if pg := m.faultLocked(p); pg != nil {
			same = bytes.Equal(pg[lo:lo+k], chunk)
		} else {
			same = allZero(chunk)
		}
		if !same {
			m.writeLocked(addr+uint32(off), chunk)
			changed = true
		}
		off += k
	}
	return changed
}

// Zero clears n bytes starting at addr; used by the SLB Core's cleanup phase
// to erase PAL secrets before the OS resumes. It bumps the write generation
// of every covered page, absent ones included; a scrubbed page stays
// resident, and a scrubbed image page reads as zeros from then on.
func (m *PhysMem) Zero(addr uint32, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	for off := 0; off < n; {
		p, lo, k := span(addr, n, off)
		if pg := m.faultLocked(p); pg != nil {
			clear(pg[lo : lo+k])
		}
		off += k
	}
	m.bumpLocked(addr, n)
	return nil
}

// ZeroIfDirty clears n bytes starting at addr like Zero, but only touches
// (and bumps the write generation of) pages holding a nonzero byte. Erasing
// an already-clean range, or an absent page, is generation-neutral.
func (m *PhysMem) ZeroIfDirty(addr uint32, n int) (changed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, n); err != nil {
		return false, err
	}
	for off := 0; off < n; {
		p, lo, k := span(addr, n, off)
		if pg := m.faultLocked(p); pg != nil && !allZero(pg[lo:lo+k]) {
			clear(pg[lo : lo+k])
			m.bumpLocked(addr+uint32(off), k)
			changed = true
		}
		off += k
	}
	return changed, nil
}

// zeroPage is the comparison reference for allZero's memcmp fast path.
var zeroPage [PageSize]byte

// allZero reports whether every byte of b (at most one page) is zero.
func allZero(b []byte) bool {
	return bytes.Equal(b, zeroPage[:len(b)])
}

// DEVProtect marks the pages covering [addr, addr+n) as DMA-excluded.
// SKINIT calls this for the 64 KB starting at the SLB base; preparatory code
// in the first 64 KB may call it again to extend protection upward. An empty
// range covers no page.
func (m *PhysMem) DEVProtect(addr uint32, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	first, end := pageRange(addr, n)
	for p := first; p < end; p++ {
		m.dev[p] = true
	}
	return nil
}

// DEVClear removes DMA exclusion from the pages covering [addr, addr+n);
// the SLB Core clears its protections just before resuming the OS. An empty
// range covers no page.
func (m *PhysMem) DEVClear(addr uint32, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	first, end := pageRange(addr, n)
	for p := first; p < end; p++ {
		m.dev[p] = false
	}
	return nil
}

// DEVProtected reports whether every page of [addr, addr+n) is DMA-excluded.
func (m *PhysMem) DEVProtected(addr uint32, n int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.checkRange(addr, n) != nil || n == 0 {
		return false
	}
	first, end := pageRange(addr, n)
	for p := first; p < end; p++ {
		if !m.dev[p] {
			return false
		}
	}
	return true
}

// devBlocks reports whether any page of [addr, addr+n) is DMA-excluded.
func (m *PhysMem) devBlocks(addr uint32, n int) bool {
	first, end := pageRange(addr, n)
	for p := first; p < end; p++ {
		if m.dev[p] {
			return true
		}
	}
	return false
}

// DMARead performs a device-originated read. It fails with an AccessError
// if any touched page is DEV-protected.
func (m *PhysMem) DMARead(device string, addr uint32, n int) ([]byte, error) {
	m.rlock(addr, n, true)
	defer m.mu.RUnlock()
	if err := m.checkRange(addr, n); err != nil {
		m.recordDMA(device, "read", "bad-range", n)
		return nil, err
	}
	if m.devBlocks(addr, n) {
		m.recordDMA(device, "read", "dev-blocked", n)
		return nil, &AccessError{Addr: addr, Len: n,
			Reason: fmt.Sprintf("DEV blocks DMA read by %q", device)}
	}
	m.recordDMA(device, "read", "ok", n)
	out := make([]byte, n)
	m.readLocked(addr, out)
	return out, nil
}

// DMAWrite performs a device-originated write, subject to the DEV.
func (m *PhysMem) DMAWrite(device string, addr uint32, b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRange(addr, len(b)); err != nil {
		m.recordDMA(device, "write", "bad-range", len(b))
		return err
	}
	if m.devBlocks(addr, len(b)) {
		m.recordDMA(device, "write", "dev-blocked", len(b))
		return &AccessError{Addr: addr, Len: len(b),
			Reason: fmt.Sprintf("DEV blocks DMA write by %q", device)}
	}
	m.recordDMA(device, "write", "ok", len(b))
	m.writeLocked(addr, b)
	return nil
}

// Device is a DMA-capable peripheral (e.g. the paper's example of a
// malicious Ethernet card on the PCI bus). It can only touch memory through
// DMARead/DMAWrite and is therefore subject to the DEV.
type Device struct {
	Name string
	mem  *PhysMem
}

// AttachDevice registers a named DMA-capable device on the bus.
func (m *PhysMem) AttachDevice(name string) *Device {
	return &Device{Name: name, mem: m}
}

// Read issues a DMA read transaction from the device.
func (d *Device) Read(addr uint32, n int) ([]byte, error) {
	return d.mem.DMARead(d.Name, addr, n)
}

// Write issues a DMA write transaction from the device.
func (d *Device) Write(addr uint32, b []byte) error {
	return d.mem.DMAWrite(d.Name, addr, b)
}
