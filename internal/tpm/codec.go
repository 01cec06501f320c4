package tpm

import (
	"encoding/binary"
	"errors"
	"slices"
)

// The TPM speaks a byte-level command protocol (TPM 1.2 Part 3). This file
// holds the little marshaling toolkit used by both the TPM core and client
// drivers: big-endian integers and length-prefixed byte fields, plus the
// request/response framing.
//
// Request frame:  tag(2) | totalSize(4) | ordinal(4)  | body...
// Response frame: tag(2) | totalSize(4) | returnCode(4) | body...

// Command tags (TPM 1.2 Part 3 §2.1).
const (
	tagRQUCommand uint16 = 0x00C1
	tagRSPCommand uint16 = 0x00C4
	tagRQUAuth1   uint16 = 0x00C2
	tagRSPAuth1   uint16 = 0x00C5
)

// Ordinals for the commands Flicker uses (TPM 1.2 Part 2 §17).
const (
	OrdStartup          uint32 = 0x00000099
	OrdOIAP             uint32 = 0x0000000A
	OrdOSAP             uint32 = 0x0000000B
	OrdExtend           uint32 = 0x00000014
	OrdPCRRead          uint32 = 0x00000015
	OrdQuote            uint32 = 0x00000016
	OrdSeal             uint32 = 0x00000017
	OrdUnseal           uint32 = 0x00000018
	OrdGetRandom        uint32 = 0x00000046
	OrdGetCapability    uint32 = 0x00000065
	OrdMakeIdentity     uint32 = 0x00000079
	OrdLoadKey2         uint32 = 0x00000041
	OrdPCRReset         uint32 = 0x000000C8
	OrdNVDefineSpace    uint32 = 0x000000CC
	OrdNVWriteValue     uint32 = 0x000000CD
	OrdNVReadValue      uint32 = 0x000000CF
	OrdCreateCounter    uint32 = 0x000000DC
	OrdIncrementCounter uint32 = 0x000000DD
	OrdReadCounter      uint32 = 0x000000DE
	// Locality-4 hardware sequence used by SKINIT to transmit the SLB.
	OrdHashStart uint32 = 0x000000F0
	OrdHashData  uint32 = 0x000000F1
	OrdHashEnd   uint32 = 0x000000F2
	// OrdHashDigest is the locality-4 fast path for a re-measurement whose
	// digest the CPU already knows (write-generation measurement cache): it
	// carries the precomputed SLB digest plus the original transfer length,
	// charges the full per-byte LPC transfer cost, extends PCR 17 and closes
	// the sequence — HASH_DATA chunks and HASH_END folded into one command.
	OrdHashDigest uint32 = 0x000000F3
)

// Return codes (TPM 1.2 Part 2 §16).
const (
	RCSuccess       uint32 = 0x00000000
	RCAuthFail      uint32 = 0x00000001
	RCBadIndex      uint32 = 0x00000002
	RCBadParameter  uint32 = 0x00000003
	RCDisabled      uint32 = 0x00000007
	RCFail          uint32 = 0x00000009
	RCBadOrdinal    uint32 = 0x0000000A
	RCNotSealedBlob uint32 = 0x00000021
	RCWrongPCRVal   uint32 = 0x00000018
	RCBadLocality   uint32 = 0x00000029
	RCResources     uint32 = 0x00000015
	RCAreaLocked    uint32 = 0x0000003C
	// RCInvalidPostInit: a command other than TPM_Startup arrived after a
	// platform reset (TPM 1.2 Part 2 §16, TPM_E_INVALID_POSTINIT).
	RCInvalidPostInit uint32 = 0x00000026
)

// buf is an append-only big-endian writer.
type buf struct{ b []byte }

func (w *buf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *buf) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *buf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *buf) raw(p []byte) { w.b = append(w.b, p...) }

// bytes32 writes a 4-byte length prefix followed by the data.
func (w *buf) bytes32(p []byte) {
	w.u32(uint32(len(p)))
	w.raw(p)
}

// field32 writes a 4-byte length n and returns the n bytes after it, for
// the caller to fill in place; their prior contents are unspecified.
func (w *buf) field32(n int) []byte {
	w.u32(uint32(n))
	w.b = slices.Grow(w.b, n)[:len(w.b)+n]
	return w.b[len(w.b)-n:]
}

// errTruncated reports a short read while parsing a structure.
var errTruncated = errors.New("tpm: truncated structure")

// rdr is a consuming big-endian reader.
type rdr struct{ b []byte }

func (r *rdr) u8() (uint8, error) {
	if len(r.b) < 1 {
		return 0, errTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *rdr) u16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

func (r *rdr) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *rdr) raw(n int) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, errTruncated
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v, nil
}

// bytes32 reads a 4-byte length prefix followed by that many bytes.
func (r *rdr) bytes32() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, errTruncated
	}
	return r.raw(int(n))
}

func (r *rdr) empty() bool { return len(r.b) == 0 }

// appendCommand frames a request into dst's capacity (dst may be nil) and
// returns the frame. The buffer may be reused for the next command as soon
// as the synchronous submit returns: command handling copies anything the
// TPM retains from the request frame.
func appendCommand(dst []byte, tag uint16, ordinal uint32, body []byte) []byte {
	w := &buf{b: dst[:0]}
	w.u16(tag)
	w.u32(uint32(10 + len(body)))
	w.u32(ordinal)
	w.raw(body)
	return w.b
}

// appendResponse frames a response onto dst, copying body (handlers build
// bodies in TPM scratch). dst belongs to the caller — the driver's response
// buffer — so a warm driver reads every response without allocating.
func appendResponse(dst []byte, tag uint16, rc uint32, body []byte) []byte {
	dst = slices.Grow(dst, 10+len(body))
	dst = binary.BigEndian.AppendUint16(dst, tag)
	dst = binary.BigEndian.AppendUint32(dst, uint32(10+len(body)))
	dst = binary.BigEndian.AppendUint32(dst, rc)
	return append(dst, body...)
}

// parseFrame splits a frame into (tag, code, body); code is the ordinal for
// requests and the return code for responses.
func parseFrame(p []byte) (tag uint16, code uint32, body []byte, err error) {
	if len(p) < 10 {
		return 0, 0, nil, errTruncated
	}
	tag = binary.BigEndian.Uint16(p)
	size := binary.BigEndian.Uint32(p[2:])
	if int(size) != len(p) {
		return 0, 0, nil, errors.New("tpm: frame size mismatch")
	}
	code = binary.BigEndian.Uint32(p[6:])
	return tag, code, p[10:], nil
}
