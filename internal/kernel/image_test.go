package kernel

import (
	"crypto/sha1"
	"encoding/hex"
	"testing"

	"flicker/internal/hw/cpu"
	"flicker/internal/hw/tis"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

// TestKernelImageGolden pins the exact bytes Boot lays down: the SHA-1 of
// the kernel text and of the syscall table for the seeds the library
// ("flicker") and the benchmark ("flickerbench") boot with. Known-good
// rootkit-detector measurements and every figure that hashes the kernel
// depend on them, so any change to how the image is produced must leave
// them bit-identical.
func TestKernelImageGolden(t *testing.T) {
	for _, c := range []struct {
		seed, text, table string
	}{
		{"flicker",
			"3df02725e77eedc0f8e1336bcca76b6d355706e1",
			"2f90142d308a39c04ba14967edc93c8604402da0"},
		{"flickerbench",
			"5bda3cd92140a667890f5c03b2c4824584d7c6f5",
			"3f0c5f50ec0d83cb789b7581f46961f6d2d4c1f9"},
	} {
		clock := simtime.New()
		prof := simtime.ProfileBroadcom()
		tp, err := tpm.New(clock, prof, tpm.Options{Seed: []byte("kernel-test")})
		if err != nil {
			t.Fatal(err)
		}
		m, err := cpu.NewMachine(clock, prof, tis.NewBus(tp), cpu.Config{Cores: 1, MemSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Boot(m, clock, prof, c.seed); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name string
			addr uint32
			n    int
			want string
		}{
			{"text", KernelTextBase, KernelTextLen, c.text},
			{"syscall table", SyscallTableBase, 4 * NumSyscalls, c.table},
		} {
			b, err := m.Mem.Read(r.addr, r.n)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha1.Sum(b)
			if got := hex.EncodeToString(sum[:]); got != r.want {
				t.Errorf("seed %q: %s SHA-1 = %s, want %s", c.seed, r.name, got, r.want)
			}
		}
	}
}
