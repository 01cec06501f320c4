package tpm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flicker/internal/hw/tis"
)

// marshalCommand frames a request into a fresh buffer.
func marshalCommand(tag uint16, ordinal uint32, body []byte) []byte {
	return appendCommand(nil, tag, ordinal, body)
}

// malformedFrames are request frames the TPM must answer with an error code.
func malformedFrames() [][]byte {
	return [][]byte{
		nil,
		{1, 2, 3},
		marshalCommand(tagRQUCommand, 0xFFFF, nil),           // unknown ordinal
		marshalCommand(0x9999, OrdExtend, make([]byte, 24)),  // bad tag
		marshalCommand(tagRQUCommand, OrdExtend, []byte{1}),  // truncated body
		marshalCommand(tagRQUCommand, OrdSeal, []byte{0, 0}), // auth cmd, wrong tag
		marshalCommand(tagRQUAuth1, OrdUnseal, []byte{1, 2}), // short auth trailer
		func() []byte { // size field lies
			c := marshalCommand(tagRQUCommand, OrdPCRRead, []byte{0, 0, 0, 1})
			c[5] = 0xFF
			return c
		}(),
	}
}

// wellFormedFrames are request frames that succeed at the paired locality:
// the unauthorized commands a session issues and the locality-4 sequence.
func wellFormedFrames() (locs []tis.Locality, frames [][]byte) {
	add := func(l tis.Locality, ord uint32, body []byte) {
		locs = append(locs, l)
		frames = append(frames, marshalCommand(tagRQUCommand, ord, body))
	}
	add(tis.Locality2, OrdExtend, append([]byte{0, 0, 0, 17}, make([]byte, DigestSize)...))
	add(tis.Locality0, OrdPCRRead, []byte{0, 0, 0, 17})
	add(tis.Locality2, OrdGetRandom, []byte{0, 0, 0, 128})
	add(tis.Locality0, OrdGetCapability, []byte{0, 0, 0, 0})
	add(tis.Locality0, OrdOIAP, nil)
	add(tis.Locality4, OrdHashStart, nil)
	add(tis.Locality4, OrdHashData, []byte("slb bytes"))
	add(tis.Locality4, OrdHashEnd, nil)
	return locs, frames
}

// FuzzTPMCommand drives the TPM's frame path with arbitrary request bytes
// at every locality. Properties:
//   - AppendResponse into a reused, pre-dirtied buffer appends exactly the
//     bytes HandleCommand returns on a twin TPM with the same seed, and
//     leaves the buffer's live prefix alone;
//   - every response is a frame whose size field equals its length;
//   - input that is not a request frame never earns RCSuccess.
func FuzzTPMCommand(f *testing.F) {
	into, fresh := newBenchRig(f), newBenchRig(f)
	for _, c := range malformedFrames() {
		f.Add(uint8(tis.Locality0), c)
	}
	locs, frames := wellFormedFrames()
	for i, c := range frames {
		f.Add(uint8(locs[i]), c)
	}
	const prefix = 3
	dst := make([]byte, 0, 64)
	f.Fuzz(func(t *testing.T, loc uint8, cmd []byte) {
		l := tis.Locality(loc % 5)
		dst = dst[:cap(dst)]
		for i := range dst {
			dst[i] = 0xA5
		}
		got := into.tpm.AppendResponse(dst[:prefix], l, cmd)
		want := fresh.tpm.HandleCommand(l, cmd)
		if !bytes.Equal(got[:prefix], []byte{0xA5, 0xA5, 0xA5}) {
			t.Fatalf("AppendResponse overwrote the buffer's live prefix: % x", got[:prefix])
		}
		if !bytes.Equal(got[prefix:], want) {
			t.Fatalf("AppendResponse into a reused buffer = % x, HandleCommand = % x", got[prefix:], want)
		}
		dst = got[:0]

		if len(want) < 10 || binary.BigEndian.Uint32(want[2:]) != uint32(len(want)) {
			t.Fatalf("response % x: size field does not match its %d bytes", want, len(want))
		}
		tag, rc, _, err := parseFrame(want)
		if err != nil || (tag != tagRSPCommand && tag != tagRSPAuth1) {
			t.Fatalf("response % x does not parse as a response frame (tag %#x, err %v)", want, tag, err)
		}
		if rqTag, _, _, err := parseFrame(cmd); (err != nil || (rqTag != tagRQUCommand && rqTag != tagRQUAuth1)) && rc == RCSuccess {
			t.Fatalf("unframed input % x answered RCSuccess", cmd)
		}
	})
}

// TestWellFormedFramesSucceed pins the fuzz seeds' meaning: each well-formed
// seed frame succeeds at its locality (in order, so the hash sequence runs).
func TestWellFormedFramesSucceed(t *testing.T) {
	r := newRig(t)
	locs, frames := wellFormedFrames()
	for i, c := range frames {
		if _, rc, _, err := parseFrame(r.tpm.HandleCommand(locs[i], c)); err != nil || rc != RCSuccess {
			t.Errorf("seed %d: rc=%#x err=%v, want success", i, rc, err)
		}
	}
}
