package tpm

import (
	"encoding/binary"
	"fmt"

	"flicker/internal/hw/tis"
)

// L4Scratch holds the locality-4 sequence's command frame, response frame
// and HASH_DIGEST body, reused across launches so a warm SKINIT measures
// without allocating. It serves one sequence at a time: the CPU owns one
// per machine, and a machine runs one late launch at a time.
type L4Scratch struct {
	cmd, rsp []byte
	digest   [4 + DigestSize]byte
}

// RunHashSequence performs the locality-4 HASH_START / HASH_DATA / HASH_END
// sequence by which SKINIT transmits the SLB to the TPM. This is the CPU
// microcode path: it is the ONLY way PCR 17 can be reset without a reboot,
// and it submits at tis.Locality4, which no simulated software component
// holds. It returns the resulting PCR 17 value.
//
// The SLB is streamed in LPC-sized chunks; the per-byte transfer cost
// charged by the TPM is what produces Table 2's linear SKINIT latency.
func RunHashSequence(bus *tis.Bus, s *L4Scratch, slb []byte) (Digest, error) {
	if _, err := s.submit(bus, OrdHashStart, nil); err != nil {
		return Digest{}, fmt.Errorf("tpm: hash start: %w", err)
	}
	const chunk = 4096
	for off := 0; off < len(slb); off += chunk {
		end := off + chunk
		if end > len(slb) {
			end = len(slb)
		}
		if _, err := s.submit(bus, OrdHashData, slb[off:end]); err != nil {
			return Digest{}, fmt.Errorf("tpm: hash data: %w", err)
		}
	}
	out, err := s.submit(bus, OrdHashEnd, nil)
	if err != nil {
		return Digest{}, fmt.Errorf("tpm: hash end: %w", err)
	}
	return pcrValue(out)
}

// RunHashSequencePrecomputed performs the same locality-4 sequence when the
// CPU already knows the SLB's digest from its write-generation measurement
// cache: HASH_START (resetting PCRs 17-23 exactly as the streaming path
// does) followed by HASH_DIGEST, which charges the full per-byte transfer
// cost for totalLen bytes and extends digest into PCR 17. The PCR 17 value
// and the simulated time charged are bit-identical to streaming the same
// bytes through RunHashSequence; only the host-side hashing work is skipped.
func RunHashSequencePrecomputed(bus *tis.Bus, s *L4Scratch, digest Digest, totalLen int) (Digest, error) {
	if _, err := s.submit(bus, OrdHashStart, nil); err != nil {
		return Digest{}, fmt.Errorf("tpm: hash start: %w", err)
	}
	binary.BigEndian.PutUint32(s.digest[:], uint32(totalLen))
	copy(s.digest[4:], digest[:])
	out, err := s.submit(bus, OrdHashDigest, s.digest[:])
	if err != nil {
		return Digest{}, fmt.Errorf("tpm: hash digest: %w", err)
	}
	return pcrValue(out)
}

// pcrValue decodes the PCR 17 value a closing HASH_END / HASH_DIGEST returns.
func pcrValue(out []byte) (Digest, error) {
	if len(out) != DigestSize {
		return Digest{}, errTruncated
	}
	return Digest(out), nil
}

// submit frames one command into the scratch, submits it at the hardware
// locality, and returns the response body, valid until the next submit.
func (s *L4Scratch) submit(bus *tis.Bus, ord uint32, body []byte) ([]byte, error) {
	s.cmd = appendCommand(s.cmd, tagRQUCommand, ord, body)
	resp, err := bus.SubmitAtTo(s.rsp[:0], tis.Locality4, s.cmd)
	if err != nil {
		return nil, err
	}
	s.rsp = resp
	return unframe(ord, resp)
}
