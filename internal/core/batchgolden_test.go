package core

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"flicker/internal/pal"
	"flicker/internal/palcrypto"
	"flicker/internal/slb"
)

// ledgerPAL is a header/trailer BatchPAL: OpenBatch keeps the header as the
// batch's carried state, each request's reply names the state and the
// request, and CloseBatch returns the state with the request count as the
// trailer. Its frames exercise every field of both batch wire formats.
type ledgerPAL struct{ pal.PAL }

func newLedgerPAL() *ledgerPAL {
	return &ledgerPAL{&pal.Func{
		PALName: "ledger",
		Binary:  pal.DescriptorCode("ledger", "1.0", nil, nil),
		Fn: func(*pal.Env, []byte) ([]byte, error) {
			return nil, fmt.Errorf("ledger: batch only")
		},
	}}
}

type ledgerState struct {
	state []byte
	n     int
}

func (l *ledgerPAL) OpenBatch(_ *pal.Env, header []byte, _ int) (any, error) {
	return &ledgerState{state: append([]byte(nil), header...)}, nil
}

func (l *ledgerPAL) RunRequest(_ *pal.Env, bctx any, i int, input []byte) ([]byte, error) {
	st := bctx.(*ledgerState)
	st.n++
	if len(input) > 0 && input[0] == '!' {
		return nil, fmt.Errorf("ledger: request %d refused", i)
	}
	return fmt.Appendf(nil, "%s/%d:%s", st.state, i, input), nil
}

func (l *ledgerPAL) CloseBatch(_ *pal.Env, bctx any) ([]byte, error) {
	st := bctx.(*ledgerState)
	return fmt.Appendf(nil, "%s#%d", st.state, st.n), nil
}

// batchGolden is what one batched session pins: the SHA-1 of the framed
// input page and of the output frame as they sat in simulated memory, the
// digests the SLB Core extended, the final PCR 17, and the simulated
// duration.
type batchGolden struct {
	inputPage, outputFrame    string
	inputDigest, outputDigest string
	pcr17Final                string
	duration                  time.Duration
}

// runGoldenBatch runs one batch as the first session of a fresh platform
// and reads both parameter pages back while the session is still open (at
// the cleanup boundary, after pal-exec wrote the output page).
func runGoldenBatch(t *testing.T, pl pal.PAL, batch Batch) batchGolden {
	t.Helper()
	p := newPlatform(t)
	var in, out []byte
	opts := SessionOptions{Injector: func(phase string) error {
		if phase != "cleanup" {
			return nil
		}
		base := p.scratch.st.slbBase
		var err error
		if in, err = p.Mod.ReadInputs(base); err != nil {
			return err
		}
		var hdr [4]byte
		if err := p.Machine.Mem.ReadInto(base+uint32(slb.OutputsOffset), hdr[:]); err != nil {
			return err
		}
		out, err = p.Machine.Mem.Read(base+uint32(slb.OutputsOffset)+4, int(binary.BigEndian.Uint32(hdr[:])))
		return err
	}}
	br, err := p.RunSessionBatch(pl, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if br.Session.PALError != nil {
		t.Fatal(br.Session.PALError)
	}
	if string(out) != string(br.Session.Outputs) {
		t.Fatal("output page differs from Session.Outputs")
	}
	s := br.Session
	return batchGolden{
		inputPage:    fmt.Sprintf("%x", palcrypto.SHA1Sum(in)),
		outputFrame:  fmt.Sprintf("%x", palcrypto.SHA1Sum(out)),
		inputDigest:  fmt.Sprintf("%x", s.InputDigest),
		outputDigest: fmt.Sprintf("%x", s.OutputDigest),
		pcr17Final:   fmt.Sprintf("%x", s.PCR17Final),
		duration:     s.Duration(),
	}
}

// goldenRequests returns n distinct requests of growing length; with bang
// set, request 1 asks the ledger PAL for a request-level error.
func goldenRequests(n int, bang bool) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = fmt.Appendf(nil, "req-%d-%s", i, make([]byte, 3*i))
	}
	if bang && n > 1 {
		reqs[1] = []byte("!refuse")
	}
	return reqs
}

// TestBatchFramesGolden pins the batch wire frames and everything the
// attestation derives from them, for a plain PAL and a header/trailer
// BatchPAL at N = 1 and N = 8: any change to the frames, the PCR-17 chain
// or the simulated time fails here.
func TestBatchFramesGolden(t *testing.T) {
	cases := []struct {
		name  string
		pl    pal.PAL
		batch Batch
		want  batchGolden
	}{
		{"plain/N=1", echoPAL(), Batch{Requests: goldenRequests(1, false)}, batchGolden{
			inputPage: "ee997adecee475515442c36aac767728bfe37660", outputFrame: "903c7874cb0ddf2142bacf9420d0f7357f738bea",
			inputDigest: "ee997adecee475515442c36aac767728bfe37660", outputDigest: "903c7874cb0ddf2142bacf9420d0f7357f738bea",
			pcr17Final: "9153c6018c018477f4e2c812b271b6e0544802a3", duration: 20541680,
		}},
		{"plain/N=8", echoPAL(), Batch{Requests: goldenRequests(8, false)}, batchGolden{
			inputPage: "f231a5120cd658526225743c21261bc187700d2f", outputFrame: "f3d8011e260384ce88aeaf59bb00dcf8b44bc1b4",
			inputDigest: "f231a5120cd658526225743c21261bc187700d2f", outputDigest: "f3d8011e260384ce88aeaf59bb00dcf8b44bc1b4",
			pcr17Final: "7aca8414794fcd45061045ac55932c908683fd25", duration: 20541680,
		}},
		{"ledger/N=1", newLedgerPAL(), Batch{Header: []byte("db-v1"), Requests: goldenRequests(1, true)}, batchGolden{
			inputPage: "cba3f383a336d61bbc8ba8c5c66a1c430b9effaf", outputFrame: "756ef9a787a707f1deae947cfaa3468ab9d39480",
			inputDigest: "cba3f383a336d61bbc8ba8c5c66a1c430b9effaf", outputDigest: "756ef9a787a707f1deae947cfaa3468ab9d39480",
			pcr17Final: "4775dd8cb54a4f770d1caaceadf7c9945b9b1788", duration: 20547070,
		}},
		{"ledger/N=8", newLedgerPAL(), Batch{Header: []byte("db-v1"), Requests: goldenRequests(8, true)}, batchGolden{
			inputPage: "51f44052fc6ec74958f4667faf6949183911b947", outputFrame: "4e60ea6a01ef50129077bd0e0c02c1fb3adbfe73",
			inputDigest: "51f44052fc6ec74958f4667faf6949183911b947", outputDigest: "4e60ea6a01ef50129077bd0e0c02c1fb3adbfe73",
			pcr17Final: "c639065716bdcccc15b0107117215d36d310183f", duration: 20547070,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runGoldenBatch(t, tc.pl, tc.batch); got != tc.want {
				t.Errorf("batch frames moved:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
