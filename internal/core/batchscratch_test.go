package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flicker/internal/pal"
	"flicker/internal/slb"
)

// mirrorPAL replies with its input slice itself, so its replies alias the
// bytes the engine read back from the input page.
func mirrorPAL() pal.PAL {
	return &pal.Func{
		PALName: "mirror",
		Binary:  pal.DescriptorCode("mirror", "1.0", nil, nil),
		Fn:      func(_ *pal.Env, input []byte) ([]byte, error) { return input, nil },
	}
}

// aliasPAL is a batch PAL that copies nothing: each reply is its request
// and the trailer is the header, all aliasing the engine's input read-back.
type aliasPAL struct{ pal.PAL }

func (aliasPAL) OpenBatch(_ *pal.Env, header []byte, _ int) (any, error) { return header, nil }

func (aliasPAL) RunRequest(_ *pal.Env, _ any, _ int, in []byte) ([]byte, error) { return in, nil }

func (aliasPAL) CloseBatch(_ *pal.Env, bctx any) ([]byte, error) { return bctx.([]byte), nil }

// batchSnapshot is a deep copy of everything a BatchResult hands its caller.
type batchSnapshot struct {
	replies   []string
	trailer   string
	outputs   string
	phases    []Phase
	completed int
}

func snapshotBatch(br *BatchResult) batchSnapshot {
	s := batchSnapshot{trailer: string(br.Trailer), completed: br.Completed}
	for _, r := range br.Replies {
		s.replies = append(s.replies, fmt.Sprintf("%q/%v", r.Output, r.Err))
	}
	if br.Session != nil {
		s.outputs = string(br.Session.Outputs)
		s.phases = append([]Phase(nil), br.Session.Phases...)
	}
	return s
}

// requireBatchScratchEmpty fails unless the platform's batch scratch holds
// no request bytes, request slices, PAL or result.
func requireBatchScratchEmpty(t *testing.T, p *Platform) {
	t.Helper()
	br := &p.scratch.framed
	if i := bytes.IndexFunc(br.frame[:cap(br.frame)], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Errorf("batch frame scratch byte %d is nonzero after the session", i)
	}
	for i, r := range br.reqs[:cap(br.reqs)] {
		if r != nil {
			t.Errorf("batch request slot %d still holds %q after the session", i, r)
		}
	}
	if br.PAL != nil || br.bp != nil || br.plain.PAL != nil || br.st != nil || br.out != nil {
		t.Error("batch scratch still references the PAL or the result after the session")
	}
}

// A BatchResult is caller-owned: its replies, trailer, output frame and
// timeline are fresh memory that a later batch on the same platform, whose
// inputs overwrite the reused frame and request scratch, must not touch,
// even when the PAL's replies and trailer alias its input. The same holds
// for the completed prefix of a batch aborted mid-way.
func TestBatchResultsCallerOwned(t *testing.T) {
	batchOf := func(tag string, n, size int) [][]byte {
		reqs := make([][]byte, n)
		for i := range reqs {
			reqs[i] = bytes.Repeat([]byte(fmt.Sprintf("%s%d", tag, i)), size)
		}
		return reqs
	}
	cases := []struct {
		name   string
		pl     pal.PAL
		header []byte
		abort  bool
	}{
		{"plain", mirrorPAL(), nil, false},
		{"header-trailer", newLedgerPAL(), []byte("state-A"), false},
		{"aliased header-trailer", aliasPAL{mirrorPAL()}, []byte("state-A"), false},
		{"plain aborted", mirrorPAL(), nil, true},
		{"header-trailer aborted", newLedgerPAL(), []byte("state-A"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t)
			var opts SessionOptions
			if tc.abort {
				opts.Injector = func(phase string) error {
					if phase == "request[3]" {
						return errors.New("killed at request 3")
					}
					return nil
				}
			}
			a, err := p.RunSessionBatch(tc.pl, Batch{Header: tc.header, Requests: batchOf("A", 6, 8)}, opts)
			if tc.abort != (err != nil) {
				t.Fatalf("batch A err = %v, abort %v", err, tc.abort)
			}
			if tc.abort && (a.Session != nil || a.Completed != 3) {
				t.Fatalf("aborted batch A: session %v, completed %d; want nil and 3", a.Session, a.Completed)
			}
			if !tc.abort && a.Session.PALError != nil {
				t.Fatal(a.Session.PALError)
			}
			requireBatchScratchEmpty(t, p)
			want := snapshotBatch(a)

			// B frames more and longer requests, so it rewrites every byte
			// and slot of the scratch A used.
			header := bytes.Repeat([]byte("state-B"), 4)
			if tc.header == nil {
				header = nil
			}
			b, err := p.RunSessionBatch(tc.pl, Batch{Header: header, Requests: batchOf("B", 9, 12)}, SessionOptions{})
			if err != nil || b.Session.PALError != nil {
				t.Fatalf("batch B: %v %v", err, b.Session.PALError)
			}
			requireBatchScratchEmpty(t, p)
			if got := snapshotBatch(a); !reflect.DeepEqual(got, want) {
				t.Errorf("batch B changed batch A's result:\n got %+v\nwant %+v", got, want)
			}
			for i, r := range a.Replies {
				if tc.pl.Name() == "mirror" && !strings.HasPrefix(string(r.Output), fmt.Sprintf("A%d", i)) {
					t.Errorf("A reply %d = %q", i, r.Output)
				}
			}
			if _, ok := tc.pl.(aliasPAL); ok && string(a.Trailer) != string(tc.header) {
				t.Errorf("A trailer = %q, want its header %q", a.Trailer, tc.header)
			}
		})
	}
}

// fixedPAL replies with one shared slice, so a session's allocations are
// the engine's own.
func fixedPAL() pal.PAL {
	reply := []byte("ok")
	return &pal.Func{
		PALName: "fixed",
		Binary:  pal.DescriptorCode("fixed", "1.0", nil, nil),
		Fn:      func(*pal.Env, []byte) ([]byte, error) { return reply, nil },
	}
}

// TestBatchSessionAllocs budgets a warm batched session. The frame, the
// decoded requests, the input read-back and the launch record live in
// per-platform scratch, so what remains is what the caller keeps: the
// co-allocated BatchResult and SessionResult, and the output frame, which
// is the session's Outputs and which the replies point into. A batch of
// one holds its timeline and reply in the result's allocation; a larger
// batch sizes both once. Measured 2 at N = 1 and 4 at N = 8, with or
// without -race, and the budget is the measurement; the seed paid 11 at
// every N.
func TestBatchSessionAllocs(t *testing.T) {
	p := newPlatform(t)
	pl := fixedPAL()
	for _, tc := range []struct{ n, budget int }{{1, 2}, {8, 4}} {
		reqs := make([][]byte, tc.n)
		for i := range reqs {
			reqs[i] = bytes.Repeat([]byte{byte(i)}, 40)
		}
		run := func() {
			br, err := p.RunSessionBatch(pl, Batch{Requests: reqs}, SessionOptions{})
			if err != nil || br.Session.PALError != nil || br.Completed != tc.n {
				t.Fatalf("N=%d: %v %v, %d completed", tc.n, err, br.Session.PALError, br.Completed)
			}
		}
		run()
		if avg := testing.AllocsPerRun(50, run); avg > float64(tc.budget) {
			t.Errorf("warm batch of %d costs %.2f allocs, budget %d", tc.n, avg, tc.budget)
		}
	}
}

// FuzzBatchFrames feeds arbitrary bytes to the input-page decoder (inside
// the session-engine TCB) and the verifier-side output decoder. It checks
// that nothing panics; that decoding into reused, pre-dirtied request
// scratch gives exactly what decoding fresh gives; that a decoded frame
// re-encodes to the same bytes; and that a forged count is rejected before
// it sizes any slice.
func FuzzBatchFrames(f *testing.F) {
	for _, b := range []Batch{
		{Requests: [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd")}},
		{Header: []byte("sealed"), Requests: [][]byte{{}, {0xFF}}},
		{Requests: goldenRequests(8, false)},
	} {
		in, err := appendBatchInput(nil, b.Header, b.Requests)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(in)
	}
	for _, r := range [][]pal.BatchReply{
		{{Output: []byte("echo:a")}, {Err: errors.New("refused")}, {}},
		{{Output: bytes.Repeat([]byte{7}, 64)}},
	} {
		out, err := appendBatchOutput(nil, r, []byte("trailer"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(out)
	}
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	stale := []byte("stale request")
	dirty := make([][]byte, 0, 32)
	f.Fuzz(func(t *testing.T, data []byte) {
		dirty = dirty[:cap(dirty)]
		for i := range dirty {
			dirty[i] = stale
		}
		header, reqs, err := decodeBatchInput(data, nil)
		dh, dreqs, derr := decodeBatchInput(data, dirty[:0])
		if fmt.Sprint(err) != fmt.Sprint(derr) || !bytes.Equal(header, dh) || !slices.EqualFunc(reqs, dreqs, bytes.Equal) {
			t.Fatalf("input decode: fresh (%q, %q, %v), reused (%q, %q, %v)", header, reqs, err, dh, dreqs, derr)
		}
		if err == nil {
			enc, eerr := appendBatchInput(nil, header, reqs)
			switch {
			case len(data) > slb.PageSize-4 && !errors.Is(eerr, ErrBatchTooLarge):
				t.Fatalf("a %d-byte frame re-encodes without ErrBatchTooLarge: %v", len(data), eerr)
			case len(data) <= slb.PageSize-4 && !bytes.Equal(enc, data):
				t.Fatalf("input re-encodes to %x, want %x", enc, data)
			}
		}
		if len(data) >= 4 {
			if h := int(binary.BigEndian.Uint32(data)); h <= len(data)-8 {
				rest := data[4+h:]
				if count := binary.BigEndian.Uint32(rest); uint64(count) > uint64(len(rest)-4)/4 {
					if err == nil || !strings.Contains(err.Error(), "count") || reqs != nil {
						t.Fatalf("forged input count %d over %d bytes: err %v, %d slots", count, len(rest)-4, err, cap(reqs))
					}
				}
			}
		}

		replies, trailer, err := DecodeBatchOutput(data)
		if err == nil {
			enc, eerr := appendBatchOutput(nil, replies, trailer)
			if len(data) <= slb.PageSize-4 && (eerr != nil || !bytes.Equal(enc, data)) {
				t.Fatalf("output re-encodes to %x (%v), want %x", enc, eerr, data)
			}
		}
		if len(data) >= 4 {
			if count := binary.BigEndian.Uint32(data); uint64(count) > uint64(len(data)-4)/5 {
				if err == nil || !strings.Contains(err.Error(), "count") {
					t.Fatalf("forged output count %d over %d bytes: err %v", count, len(data)-4, err)
				}
			}
		}
	})
}

// BenchmarkBatchOfOne compares a warm singleton session with warm batched
// sessions of the same 40-byte request: the per-session price of running
// every request through the batch engine.
func BenchmarkBatchOfOne(b *testing.B) {
	p, err := NewPlatform(PlatformConfig{Seed: "core-test"})
	if err != nil {
		b.Fatal(err)
	}
	pl := fixedPAL()
	in := bytes.Repeat([]byte{0x5A}, 40)
	b.Run("singleton", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, err := p.RunSession(pl, SessionOptions{Input: in}); err != nil || res.PALError != nil {
				b.Fatal(err, res.PALError)
			}
		}
	})
	for _, n := range []int{1, 8} {
		reqs := make([][]byte, n)
		for i := range reqs {
			reqs[i] = in
		}
		b.Run(fmt.Sprintf("batch-of-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if br, err := p.RunSessionBatch(pl, Batch{Requests: reqs}, SessionOptions{}); err != nil || br.Session.PALError != nil {
					b.Fatal(err, br.Session.PALError)
				}
			}
		})
	}
}
