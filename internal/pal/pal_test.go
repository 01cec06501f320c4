package pal

import (
	"bytes"
	"testing"
)

func TestTCBSize(t *testing.T) {
	// The paper's headline: Flicker adds "as few as 250 lines" — SLB Core
	// alone is 94; with OS Protection it is 99; the mandatory core stays
	// under 250.
	loc, _, err := TCBSize(nil)
	if err != nil || loc != 94 {
		t.Fatalf("bare TCB = %d (%v), want 94", loc, err)
	}
	loc, _, err = TCBSize([]string{"OS Protection"})
	if err != nil || loc != 99 {
		t.Fatalf("TCB with OS protection = %d", loc)
	}
	if loc >= 250 {
		t.Fatalf("minimal TCB %d lines exceeds the paper's 250-line bound", loc)
	}
	// Duplicate modules are counted once; SLB Core is implicit.
	a, _, _ := TCBSize([]string{"Crypto", "Crypto", "SLB Core"})
	b, _, _ := TCBSize([]string{"Crypto"})
	if a != b {
		t.Fatal("duplicate module counting")
	}
	if _, _, err := TCBSize([]string{"Nonexistent"}); err == nil {
		t.Fatal("unknown module accepted")
	}
	// Full stack (the SSH PAL's footprint) is everything.
	all := []string{"OS Protection", "TPM Driver", "TPM Utilities", "Crypto", "Memory Management", "Secure Channel"}
	loc, kb, _ := TCBSize(all)
	if loc != 94+5+216+889+2262+657+292 {
		t.Fatalf("full TCB LoC = %d", loc)
	}
	if kb < 56 || kb > 57 {
		t.Fatalf("full TCB size = %.3f KB", kb)
	}
}

func TestDescriptorCode(t *testing.T) {
	a := DescriptorCode("ssh", "1.0", []string{"Crypto"}, []byte("cfg"))
	b := DescriptorCode("ssh", "1.0", []string{"Crypto"}, []byte("cfg"))
	if !bytes.Equal(a, b) {
		t.Fatal("descriptor not deterministic")
	}
	variants := [][]byte{
		DescriptorCode("ssh2", "1.0", []string{"Crypto"}, []byte("cfg")),
		DescriptorCode("ssh", "1.1", []string{"Crypto"}, []byte("cfg")),
		DescriptorCode("ssh", "1.0", []string{"Crypto", "TPM Driver"}, []byte("cfg")),
		DescriptorCode("ssh", "1.0", []string{"Crypto"}, []byte("cfg2")),
	}
	for i, v := range variants {
		if bytes.Equal(a, v) {
			t.Errorf("variant %d did not change the descriptor", i)
		}
	}
}
