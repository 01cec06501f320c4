package fabric

// Tests of the host's frame path: a steady-state frame allocates nothing on
// the host, and the pooled frame scratch, whose session results the engine
// reuses, keeps nothing of a frame once it is released.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flicker/internal/pal"
)

// mirrorPAL replies with its input slice itself, so its replies alias the
// input the engine read back into the host's reused result, and a session
// allocates nothing of the PAL's own.
func mirrorPAL() pal.PAL {
	return &pal.Func{
		PALName: "mirror",
		Binary:  pal.DescriptorCode("mirror", "1.0", nil, nil),
		Fn:      func(_ *pal.Env, input []byte) ([]byte, error) { return input, nil },
	}
}

// mirrorHost returns an unadmitted host serving the mirror PAL; a host
// serves run frames whether or not a controller has admitted it.
func mirrorHost(t *testing.T) *Host {
	t.Helper()
	r := newFabRig(t, 1, ControllerConfig{Seed: "t"})
	h := r.hosts[0]
	if err := h.RegisterPAL(mirrorPAL()); err != nil {
		t.Fatal(err)
	}
	return h
}

// mirrorFrame encodes a runBatch frame body for the mirror PAL, one member
// per input.
func mirrorFrame(frame uint64, inputs ...[]byte) []byte {
	req := &runBatchReq{Frame: frame, PAL: []byte("mirror")}
	for _, in := range inputs {
		req.Members = append(req.Members, runBatchMember{Input: in})
	}
	return appendRunBatch(nil, req)[1:]
}

// requireMirrored decodes a host reply and fails unless it answers frame
// with exactly the inputs, in order.
func requireMirrored(t *testing.T, raw []byte, frame uint64, inputs ...[]byte) {
	t.Helper()
	body, err := decodeResp(raw, kindRunBatchResp)
	if err != nil {
		t.Fatal(err)
	}
	var resp runBatchResp
	if err := decodeRunBatchRespInto(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Frame != frame || len(resp.Members) != len(inputs) {
		t.Fatalf("reply answers frame %d with %d members, want frame %d with %d", resp.Frame, len(resp.Members), frame, len(inputs))
	}
	for i, m := range resp.Members {
		if m.Status != runOK || !bytes.Equal(m.Output, inputs[i]) {
			t.Fatalf("member %d = status %d %q (%s), want %q", i, m.Status, m.Output, m.Err, inputs[i])
		}
	}
}

// TestHostFrameAllocs pins a steady-state host frame at zero allocations,
// for a one-member frame (runOne, the cold-PAL path: one singleton session
// into the scratch's SessionResult) and a four-member frame (runBatch: one
// batched session into its BatchResult). The scratch, the pool job and the
// results' storage (timeline, input read-back, replies, output frame) are
// all reused, and the mirror PAL's replies alias the read-back, so what a
// frame allocates is the host's own. Measured 0 for both. Under -race,
// sync.Pool drops a quarter of what is put back, so a dropped scratch or
// job is sometimes rebuilt (10 runs read 1-2 and 3-5).
func TestHostFrameAllocs(t *testing.T) {
	h := mirrorHost(t)
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			inputs := make([][]byte, n)
			for i := range inputs {
				inputs[i] = bytes.Repeat([]byte{byte('a' + i)}, 24)
			}
			body := mirrorFrame(9, inputs...)
			req := append([]byte{kindRunBatch}, body...)
			dst := make([]byte, 0, 1024)
			serve := func() { dst = h.handle(dst[:0], req) }
			serve()
			requireMirrored(t, dst, 9, inputs...)
			budget := 0.0
			if raceEnabled {
				budget = 7
			}
			if avg := testing.AllocsPerRun(100, serve); avg > budget {
				t.Errorf("steady-state %d-member host frame = %.2f allocs, budget %v", n, avg, budget)
			}
			requireMirrored(t, dst, 9, inputs...)
		})
	}
}

// residue returns the path of the first nonzero byte reachable from v
// through struct fields, pointers, interfaces, arrays and byte or other
// slices (read to their capacity, so bytes past a slice's length count),
// or "" when every such byte is zero.
func residue(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return residue(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return residue(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if r := residue(v.Field(i), path+"."+v.Type().Field(i).Name, seen); r != "" {
				return r
			}
		}
	case reflect.Slice:
		full := v.Slice(0, v.Cap())
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if i := bytes.IndexFunc(full.Bytes(), func(r rune) bool { return r != 0 }); i >= 0 {
				return fmt.Sprintf("%s[%d]", path, i)
			}
			return ""
		}
		for i := 0; i < full.Len(); i++ {
			if r := residue(full.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); r != "" {
				return r
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if r := residue(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); r != "" {
				return r
			}
		}
	}
	return ""
}

// TestFabricHostScratchHygiene extends the never-cross-deliver property to
// the host's frame scratch, whose session results the engine reuses from
// frame to frame. Once a frame is released, no byte of its inputs or
// outputs is readable through the scratch — its decoded request, its
// session results (input read-back, output frame, replies) or its reply —
// and a later frame on the same scratch, with shorter inputs, gets exactly
// its own replies, never an earlier frame's bytes.
func TestFabricHostScratchHygiene(t *testing.T) {
	h := mirrorHost(t)
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			s := new(hostScratch)
			frames := [][][]byte{make([][]byte, n), make([][]byte, n)}
			for i := 0; i < n; i++ {
				frames[0][i] = []byte(fmt.Sprintf("secret-A%d-%s", i, strings.Repeat("x", 40)))
				frames[1][i] = []byte(fmt.Sprintf("b%d", i))
			}
			for f, inputs := range frames {
				id := uint64(f + 1)
				reply := h.serveRunBatch(nil, mirrorFrame(id, inputs...), s)
				requireMirrored(t, reply, id, inputs...)
				if f > 0 && bytes.Contains(reply, []byte("secret-A")) {
					t.Fatalf("frame %d's reply carries an earlier frame's bytes: %q", id, reply)
				}
				// The walk reaches the results' storage: before the release
				// it finds the frame's bytes there.
				seen := map[uintptr]bool{}
				if residue(reflect.ValueOf(&s.one), "one", seen) == "" && residue(reflect.ValueOf(&s.batch), "batch", seen) == "" {
					t.Fatalf("frame %d left no bytes in the scratch's results to walk", id)
				}
				s.reset()
				if r := residue(reflect.ValueOf(s), "hostScratch", map[uintptr]bool{}); r != "" {
					t.Fatalf("after frame %d is released, %s is nonzero", id, r)
				}
			}
		})
	}
}
