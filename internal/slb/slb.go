// Package slb builds Secure Loader Block images: the byte blob passed to
// SKINIT, laid out as in Figure 3 of the paper. An SLB contains a 4-byte
// header (length and entry point, both 16-bit), the SLB Core (skeleton GDT,
// TSS, stack space, and the init/cleanup/resume code), and the PAL linked
// after it. Inputs, outputs and saved kernel state live in well-known pages
// just above the 64 KB SLB region.
//
// Because SKINIT hashes the SLB exactly as loaded, and the flicker-module
// patches the skeleton GDT/TSS with the actual load address before
// launching, the measurement of an SLB is a function of (PAL code, load
// address). Build produces the unpatched image; Patch fixes it for a base
// address; Measurement/ExpectedPCR17 then give the values a verifier must
// expect.
package slb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flicker/internal/palcrypto"
	"flicker/internal/tpm"
)

// Layout constants (Figure 3).
const (
	// MaxLen is the architectural SLB limit; the 16-bit length field makes
	// the largest representable SLB 65535 bytes.
	MaxLen = 64 * 1024
	// MaxPALEnd is where PAL code must end ("End of PAL (Start + 60KB)");
	// the top 4 KB of the SLB window is reserved for the skeleton page
	// tables built during OS resume.
	MaxPALEnd = 60 * 1024

	headerLen = 4 // length (u16 LE) + entry point (u16 LE)
	gdtLen    = 8 * 8
	tssLen    = 104
	coreLen   = 319  // SLB Core code: 0.312 KB in Figure 6
	stackLen  = 4096 // "Stack Space (4 KB)"

	// CoreRegionLen is everything before the PAL: header, GDT, TSS, core
	// code, stack.
	CoreRegionLen = headerLen + gdtLen + tssLen + coreLen + stackLen

	// Offsets of the patchable skeleton structures.
	gdtOff = headerLen
	tssOff = gdtOff + gdtLen

	// Well-known pages relative to the SLB base (Section 5.1.1: "Our
	// convention is to use the second 4-KB page above the 64-KB SLB" for
	// outputs).
	InputsOffset     = MaxLen          // first 4 KB page above the SLB
	OutputsOffset    = MaxLen + 4096   // second 4 KB page above the SLB
	SavedStateOffset = MaxLen + 2*4096 // saved kernel state for resume
	ParamAreaLen     = MaxLen + 3*4096 // total footprint incl. parameter pages
	PageSize         = 4096

	// ExtraCodeOffset is where "Additional PAL Code" beyond the 64 KB SLB
	// window is placed ("By default, these protections are offered to
	// 64 KB of memory, but they can be extended to larger memory regions.
	// If this is done, preparatory code in the first 64 KB must add this
	// additional memory to the DEV, and extend measurements of the
	// contents of this additional memory into the TPM's PCR 17", §2.4).
	ExtraCodeOffset = ParamAreaLen
	// MaxExtraCode bounds the upper region the flicker-module reserves.
	MaxExtraCode = 256 * 1024
	// RegionLen is the full memory footprint the flicker-module allocates:
	// SLB window + parameter pages + the extra-code region.
	RegionLen = ParamAreaLen + MaxExtraCode
)

// slbCoreCode is the deterministic stand-in for the SLB Core's machine
// code. Its bytes are versioned so that a change to the simulated SLB Core
// semantics changes every PAL measurement, exactly as recompiling the real
// SLB Core would.
var slbCoreCode = palcrypto.NewPRNG([]byte("flicker-slb-core-v1.0")).Bytes(coreLen)

// SessionTerminator is the "well known value" the SLB Core extends into
// PCR 17 to signal the completion of the SLB (Section 4.2, "Extend PCR"),
// and again as the fixed public constant that caps the session and revokes
// sealed-storage access (Section 4.4.1).
var SessionTerminator = palcrypto.SHA1Sum([]byte("flicker-session-terminator-v1"))

// PALCode identifies the application logic linked into an SLB.
type PALCode struct {
	// Name is a human label; it does not affect the measurement.
	Name string
	// Code is the PAL's deterministic binary identity: the bytes linked
	// after the SLB Core and hashed by SKINIT.
	Code []byte
	// Extra is "Additional PAL Code" that does not fit in the 64 KB SLB
	// window. It is placed above the parameter pages; preparatory code in
	// the measured SLB extends its protection (DEV) and measurement
	// (PCR 17) before transferring control to it.
	Extra []byte
}

// Image is a built SLB.
type Image struct {
	name    string
	data    []byte
	patched bool
	base    uint32
	// stubLen, for two-stage images, is the measured prefix length; zero
	// means the whole image is measured directly by SKINIT.
	stubLen int
	// extra is the additional PAL code above the 64 KB window.
	extra []byte
	// Cached digests, computed at link time and recomputed whenever Patch
	// actually rewrites bytes. Measurement/WindowMeasurement/ExtraMeasurement
	// are on the per-session hot path, so they must not rehash an image whose
	// bytes have not changed.
	meas       tpm.Digest
	windowMeas tpm.Digest
	extraMeas  tpm.Digest
}

// refreshDigests recomputes the cached measurements from the current bytes.
// A one-stage image measures all of its bytes, so its two digests are one
// hash.
func (im *Image) refreshDigests() {
	im.windowMeas = palcrypto.SHA1Sum(im.data)
	im.meas = im.windowMeas
	if im.TwoStage() {
		im.meas = palcrypto.SHA1Sum(im.data[:im.stubLen])
	}
	im.extraMeas = palcrypto.SHA1Sum(im.extra)
}

// Build links a PAL against the SLB Core, producing an unpatched image.
func Build(p PALCode) (*Image, error) {
	if len(p.Code) == 0 {
		return nil, errors.New("slb: empty PAL code")
	}
	if len(p.Extra) > MaxExtraCode {
		return nil, fmt.Errorf("slb: %d bytes of extra PAL code exceed the %d-byte region",
			len(p.Extra), MaxExtraCode)
	}
	total := CoreRegionLen + len(p.Code)
	if total > MaxPALEnd {
		return nil, fmt.Errorf("slb: PAL of %d bytes makes a %d-byte SLB; limit is %d (60 KB)",
			len(p.Code), total, MaxPALEnd)
	}
	data := make([]byte, total)
	binary.LittleEndian.PutUint16(data[0:2], uint16(total))
	// Entry point: the SLB Core's init code, which follows the GDT and TSS.
	binary.LittleEndian.PutUint16(data[2:4], uint16(tssOff+tssLen))
	copy(data[tssOff+tssLen:], slbCoreCode)
	copy(data[CoreRegionLen:], p.Code)
	im := &Image{name: p.Name, data: data, extra: append([]byte(nil), p.Extra...)}
	im.refreshDigests()
	return im, nil
}

// Name returns the PAL label.
func (im *Image) Name() string { return im.name }

// Len returns the SLB length in bytes (the header's length field).
func (im *Image) Len() int { return len(im.data) }

// MeasuredLen returns how many bytes SKINIT transfers to the TPM: the whole
// image for ordinary SLBs, only the stub for two-stage images.
func (im *Image) MeasuredLen() int {
	if im.stubLen > 0 {
		return im.stubLen
	}
	return len(im.data)
}

// TwoStage reports whether this is a measurement-stub image (Section 7.2's
// SKINIT optimization).
func (im *Image) TwoStage() bool { return im.stubLen > 0 }

// Patch fills the skeleton GDT and TSS with segment descriptors based at
// slbBase, which the flicker-module does once it knows where the kernel
// allocated the SLB. Patching is idempotent for the same base and rejected
// for a second, different base (the image bytes would no longer match what
// a verifier expects).
func (im *Image) Patch(slbBase uint32) error {
	if im.patched {
		if im.base != slbBase {
			return fmt.Errorf("slb: image already patched for base %#x", im.base)
		}
		// Idempotent re-patch for the same base: the descriptors already
		// hold exactly these bytes, so skip the rewrite and keep the cached
		// digests.
		return nil
	}
	// Each GDT descriptor gets the base address; the simulated descriptor
	// layout stores base in bytes 2-5 and a flat 64 KB limit in bytes 0-1.
	for i := 1; i < 4; i++ { // entries 1..3: CS, DS, SS
		off := gdtOff + i*8
		binary.LittleEndian.PutUint16(im.data[off:], uint16(MaxLen-1))
		binary.LittleEndian.PutUint32(im.data[off+2:], slbBase)
	}
	// TSS: ring-0 stack pointer at the top of the stack space.
	binary.LittleEndian.PutUint32(im.data[tssOff+4:], slbBase+uint32(CoreRegionLen-4))
	im.patched = true
	im.base = slbBase
	im.refreshDigests()
	return nil
}

// Patched reports whether the image has been fixed to a base address.
func (im *Image) Patched() bool { return im.patched }

// Base returns the patched base address (zero if unpatched).
func (im *Image) Base() uint32 { return im.base }

// Bytes returns the image contents. The caller must not modify them.
func (im *Image) Bytes() []byte { return im.data }

// Measurement returns SHA-1 over the bytes SKINIT transfers (the full image,
// or the stub prefix of a two-stage image), i.e. H(P). The digest is
// precomputed at link/patch time, so this is O(1).
func (im *Image) Measurement() tpm.Digest {
	return im.meas
}

// ExpectedPCR17 returns the PCR 17 value right after SKINIT:
// V = H(0x00^20 || H(P)).
func (im *Image) ExpectedPCR17() tpm.Digest {
	return tpm.ExtendDigest(tpm.Digest{}, im.Measurement())
}

// PALOffset returns the offset of the PAL code within the image.
func (im *Image) PALOffset() int {
	if im.stubLen > 0 {
		return im.stubLen
	}
	return CoreRegionLen
}

// stubPrefixLen is the measured prefix of a two-stage SLB: 4736 bytes, the
// size the paper reports for its hash-and-extend PAL ("We have constructed
// such a PAL in 4736 bytes").
const stubPrefixLen = 4736

// BuildTwoStage builds the Section 7.2 optimized SLB: the measured part is
// a 4736-byte stub containing a hash function and minimal TPM support; the
// stub then hashes the full 64 KB window on the main CPU and extends the
// result into PCR 17 before jumping to the PAL. SKINIT only transfers the
// stub, cutting its cost from ~176 ms to ~14 ms on the paper's hardware.
func BuildTwoStage(p PALCode) (*Image, error) {
	if len(p.Code) == 0 {
		return nil, errors.New("slb: empty PAL code")
	}
	if len(p.Extra) > MaxExtraCode {
		return nil, fmt.Errorf("slb: %d bytes of extra PAL code exceed the %d-byte region",
			len(p.Extra), MaxExtraCode)
	}
	total := stubPrefixLen + len(p.Code)
	if total > MaxPALEnd {
		return nil, fmt.Errorf("slb: PAL of %d bytes makes a %d-byte two-stage SLB; limit is %d (60 KB)",
			len(p.Code), total, MaxPALEnd)
	}
	// The stub is a self-contained measured prefix: the SLB Core plus the
	// hash-and-extend code, padded to exactly 4736 bytes. The application
	// PAL lives entirely after it, so the stub bytes — and hence the
	// stage-1 measurement — are independent of the PAL.
	data := make([]byte, total)
	// Header's length field governs how much SKINIT transfers: the stub.
	binary.LittleEndian.PutUint16(data[0:2], uint16(stubPrefixLen))
	binary.LittleEndian.PutUint16(data[2:4], uint16(tssOff+tssLen))
	copy(data[tssOff+tssLen:], slbCoreCode)
	copy(data[tssOff+tssLen+coreLen:], stubHashCode)
	copy(data[stubPrefixLen:], p.Code)
	im := &Image{name: p.Name, data: data, stubLen: stubPrefixLen,
		extra: append([]byte(nil), p.Extra...)}
	im.refreshDigests()
	return im, nil
}

// stubHashCode is the deterministic stand-in for the stub's hash-and-extend
// code, filling the measured prefix between the SLB Core and 4736 bytes.
var stubHashCode = palcrypto.NewPRNG([]byte("flicker-measurement-stub-v1.0")).
	Bytes(stubPrefixLen - (tssOff + tssLen + coreLen))

// WindowMeasurement returns the digest the two-stage stub extends into
// PCR 17: the hash of the full image as loaded (stage 2 of the optimized
// measurement). For a one-stage image it is the plain image hash, which
// equals Measurement. Either way it is the hash of Bytes, kept current
// across Patch.
func (im *Image) WindowMeasurement() tpm.Digest {
	return im.windowMeas
}

// ExpectedPCR17TwoStage returns the PCR 17 value after both measurement
// stages of an optimized SLB: extend(extend(0, H(stub)), H(window)).
func (im *Image) ExpectedPCR17TwoStage() tpm.Digest {
	return tpm.ExtendDigest(im.ExpectedPCR17(), im.WindowMeasurement())
}

// Extra returns the additional PAL code above the 64 KB window (nil for
// ordinary PALs). Callers must not modify it.
func (im *Image) Extra() []byte { return im.extra }

// HasExtra reports whether this image carries additional PAL code.
func (im *Image) HasExtra() bool { return len(im.extra) > 0 }

// ExtraMeasurement returns H(extra), the digest the preparatory code
// extends into PCR 17 after adding the upper region to the DEV.
func (im *Image) ExtraMeasurement() tpm.Digest {
	return im.extraMeas
}
