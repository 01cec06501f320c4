package tpm

import (
	"math/bits"

	"flicker/internal/palcrypto"
)

// DigestSize is the size of a TPM 1.2 digest (SHA-1).
const DigestSize = 20

// Digest is a TPM 1.2 measurement digest.
type Digest = [DigestSize]byte

// NumPCRs is the number of PCRs in a v1.2 TPM (at least 24 required).
const NumPCRs = 24

// Dynamic PCR range: PCRs 17-23 can be reset without a reboot under the
// proper conditions (Section 2.3 of the paper).
const (
	FirstDynamicPCR = 17
	LastDynamicPCR  = 23
)

// PCRSelection is a bitmap over the TPM's PCRs (TPM_PCR_SELECTION).
type PCRSelection struct {
	bitmap [3]byte // 24 PCRs / 8
}

// SelectPCRs builds a selection from a list of PCR indices.
func SelectPCRs(idxs ...int) PCRSelection {
	var s PCRSelection
	for _, i := range idxs {
		if i < 0 || i >= NumPCRs {
			panic("tpm: PCR index out of range")
		}
		s.bitmap[i/8] |= 1 << uint(i%8)
	}
	return s
}

// Has reports whether PCR i is selected.
func (s PCRSelection) Has(i int) bool {
	if i < 0 || i >= NumPCRs {
		return false
	}
	return s.bitmap[i/8]&(1<<uint(i%8)) != 0
}

// Indices returns the selected PCR indices in ascending order.
func (s PCRSelection) Indices() []int {
	var out []int
	for i := 0; i < NumPCRs; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Count returns the number of selected PCRs.
func (s PCRSelection) Count() int {
	return bits.OnesCount8(s.bitmap[0]) + bits.OnesCount8(s.bitmap[1]) + bits.OnesCount8(s.bitmap[2])
}

// marshal appends the TPM_PCR_SELECTION wire form: sizeOfSelect(2)=3 then
// the bitmap.
func (s PCRSelection) marshal(w *buf) {
	w.u16(3)
	w.raw(s.bitmap[:])
}

func parsePCRSelection(r *rdr) (PCRSelection, error) {
	var s PCRSelection
	n, err := r.u16()
	if err != nil {
		return s, err
	}
	if n != 3 {
		return s, errTruncated
	}
	b, err := r.raw(3)
	if err != nil {
		return s, err
	}
	copy(s.bitmap[:], b)
	return s, nil
}

// CompositeHash computes the TPM_COMPOSITE_HASH over the given selection and
// PCR values: SHA1(TPM_PCR_SELECTION || valueSize || PCR values in index
// order). Both the TPM (for Quote/Seal) and remote verifiers (to recompute
// expected values) use this, so it lives here as a pure function.
func CompositeHash(sel PCRSelection, values map[int]Digest) Digest {
	var pcrs [NumPCRs]Digest
	for i := range pcrs {
		if sel.Has(i) {
			pcrs[i] = values[i]
		}
	}
	return compositeHash(sel, &pcrs)
}

// compositeHash is CompositeHash over a full PCR bank, streamed into a
// stack SHA-1 state.
func compositeHash(sel PCRSelection, pcrs *[NumPCRs]Digest) Digest {
	n := sel.Count() * DigestSize
	var h palcrypto.SHA1
	h.Reset()
	h.Write([]byte{0, 3, sel.bitmap[0], sel.bitmap[1], sel.bitmap[2], byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)})
	for i := range pcrs {
		if sel.Has(i) {
			h.Write(pcrs[i][:])
		}
	}
	var out Digest
	h.SumInto(&out)
	return out
}

// QuoteInfo builds the TPM_QUOTE_INFO structure that the TPM signs:
// version(1.1.0.0) || "QUOT" || compositeHash || externalData.
func QuoteInfo(composite Digest, externalData Digest) []byte {
	w := &buf{}
	w.raw([]byte{1, 1, 0, 0})
	w.raw([]byte("QUOT"))
	w.raw(composite[:])
	w.raw(externalData[:])
	return w.b
}

// ExtendDigest computes the PCR extend operation:
// PCRnew = SHA1(PCRold || m).
func ExtendDigest(old Digest, m Digest) Digest {
	cat := make([]byte, 0, 2*DigestSize)
	cat = append(cat, old[:]...)
	cat = append(cat, m[:]...)
	return palcrypto.SHA1Sum(cat)
}

// Handles for well-known TPM resources.
const (
	// KHSRK is the storage root key handle (TPM_KH_SRK).
	KHSRK uint32 = 0x40000000
	// KHOwner is the owner authorization handle (TPM_KH_OWNER).
	KHOwner uint32 = 0x40000001
)

// Entity types for OSAP (TPM_ET_*).
const (
	ETKeyHandle uint16 = 0x0001
	ETOwner     uint16 = 0x0002
)
