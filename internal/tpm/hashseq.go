package tpm

import (
	"encoding/binary"
	"fmt"

	"flicker/internal/hw/tis"
)

// RunHashSequence performs the locality-4 HASH_START / HASH_DATA / HASH_END
// sequence by which SKINIT transmits the SLB to the TPM. This is the CPU
// microcode path: it is the ONLY way PCR 17 can be reset without a reboot,
// and it submits at tis.Locality4, which no simulated software component
// holds. It returns the resulting PCR 17 value.
//
// The SLB is streamed in LPC-sized chunks; the per-byte transfer cost
// charged by the TPM is what produces Table 2's linear SKINIT latency.
func RunHashSequence(bus *tis.Bus, slb []byte) (Digest, error) {
	submit := submitLocality4(bus)
	if _, err := submit(OrdHashStart, nil); err != nil {
		return Digest{}, fmt.Errorf("tpm: hash start: %w", err)
	}
	const chunk = 4096
	for off := 0; off < len(slb); off += chunk {
		end := off + chunk
		if end > len(slb) {
			end = len(slb)
		}
		if _, err := submit(OrdHashData, slb[off:end]); err != nil {
			return Digest{}, fmt.Errorf("tpm: hash data: %w", err)
		}
	}
	out, err := submit(OrdHashEnd, nil)
	if err != nil {
		return Digest{}, fmt.Errorf("tpm: hash end: %w", err)
	}
	var v Digest
	if len(out) != DigestSize {
		return Digest{}, errTruncated
	}
	copy(v[:], out)
	return v, nil
}

// RunHashSequencePrecomputed performs the same locality-4 sequence when the
// CPU already knows the SLB's digest from its write-generation measurement
// cache: HASH_START (resetting PCRs 17-23 exactly as the streaming path
// does) followed by HASH_DIGEST, which charges the full per-byte transfer
// cost for totalLen bytes and extends digest into PCR 17. The PCR 17 value
// and the simulated time charged are bit-identical to streaming the same
// bytes through RunHashSequence; only the host-side hashing work is skipped.
func RunHashSequencePrecomputed(bus *tis.Bus, digest Digest, totalLen int) (Digest, error) {
	submit := submitLocality4(bus)
	if _, err := submit(OrdHashStart, nil); err != nil {
		return Digest{}, fmt.Errorf("tpm: hash start: %w", err)
	}
	body := make([]byte, 4+DigestSize)
	binary.BigEndian.PutUint32(body, uint32(totalLen))
	copy(body[4:], digest[:])
	out, err := submit(OrdHashDigest, body)
	if err != nil {
		return Digest{}, fmt.Errorf("tpm: hash digest: %w", err)
	}
	var v Digest
	if len(out) != DigestSize {
		return Digest{}, errTruncated
	}
	copy(v[:], out)
	return v, nil
}

// submitLocality4 returns a closure submitting one command at the hardware
// locality and unwrapping the response frame. The closure reuses one frame
// buffer across the sequence's commands (submits are synchronous and the
// TPM copies what it retains), so streaming a 64KB SLB in 4KB chunks frames
// without re-allocating.
func submitLocality4(bus *tis.Bus) func(ord uint32, body []byte) ([]byte, error) {
	var frame []byte
	return func(ord uint32, body []byte) ([]byte, error) {
		frame = appendCommand(frame, tagRQUCommand, ord, body)
		resp, err := bus.SubmitAt(tis.Locality4, frame)
		return unframe(ord, resp, err)
	}
}
