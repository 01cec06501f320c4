// Package pal defines the programming model for Pieces of Application Logic
// and the module library they link against (the paper's Section 5). A PAL
// implements the PAL interface; its Code bytes are its measured identity;
// Run executes inside a Flicker session with an Env that exposes exactly
// the capabilities the paper's modules provide: the TPM driver and
// utilities, physical memory access (optionally sandboxed by the OS
// Protection module), the crypto library, and the secure-channel helpers.
// The Memory Management module is named in the inventory and in PAL
// descriptors, whose bytes are measured, but no PAL here allocates from a
// heap.
package pal

import (
	"fmt"
)

// PAL is a Piece of Application Logic.
type PAL interface {
	// Name is a human-readable label (not part of the measured identity).
	Name() string
	// Code returns the PAL's deterministic binary identity: the bytes that
	// are linked after the SLB Core and measured by SKINIT. Two PALs with
	// equal Code are, for attestation purposes, the same PAL.
	Code() []byte
	// Run executes the PAL's application-specific logic inside a session.
	Run(env *Env, input []byte) ([]byte, error)
}

// LargePAL is an optional interface for PALs whose code does not fit in
// the 64 KB SLB window: ExtraCode returns the "Additional PAL Code" placed
// above the parameter pages, which the measured SLB's preparatory code
// protects (DEV) and measures (PCR 17) before use.
type LargePAL interface {
	PAL
	ExtraCode() []byte
}

// DescriptorCode builds a canonical, deterministic code identity for a PAL
// from its name, version, linked modules, and static configuration. It is
// the simulation's stand-in for the compiled PAL binary: any change to the
// version, module list, or embedded configuration changes the measurement,
// exactly as recompiling would.
func DescriptorCode(name, version string, modules []string, config []byte) []byte {
	out := []byte("FLICKER-PAL\x00")
	appendField := func(b []byte) {
		out = append(out, byte(len(b)>>24), byte(len(b)>>16), byte(len(b)>>8), byte(len(b)))
		out = append(out, b...)
	}
	appendField([]byte(name))
	appendField([]byte(version))
	appendField([]byte(fmt.Sprint(modules)))
	appendField(config)
	return out
}

// Func adapts a function to the PAL interface for small PALs.
type Func struct {
	PALName string
	Binary  []byte
	// ExtraBinary, when non-empty, is additional PAL code beyond the 64 KB
	// SLB (Func then satisfies LargePAL).
	ExtraBinary []byte
	Fn          func(env *Env, input []byte) ([]byte, error)
}

// Name implements PAL.
func (f *Func) Name() string { return f.PALName }

// Code implements PAL.
func (f *Func) Code() []byte { return f.Binary }

// Run implements PAL.
func (f *Func) Run(env *Env, input []byte) ([]byte, error) { return f.Fn(env, input) }

// ExtraCode implements LargePAL.
func (f *Func) ExtraCode() []byte { return f.ExtraBinary }

// ModuleInfo describes one entry of the PAL module library, with the line
// and size accounting from Figure 6 of the paper.
type ModuleInfo struct {
	Name        string
	LOC         int
	SizeKB      float64
	Mandatory   bool
	Description string
}

// ModuleInventory reproduces Figure 6: the modules that can be included in
// a PAL, each adding code to the PAL's TCB. Only the SLB Core is mandatory.
func ModuleInventory() []ModuleInfo {
	return []ModuleInfo{
		{"SLB Core", 94, 0.312, true, "Prepare environment, execute PAL, clean environment, resume OS"},
		{"OS Protection", 5, 0.046, false, "Memory protection, ring 3 PAL execution"},
		{"TPM Driver", 216, 0.825, false, "Communication with the TPM"},
		{"TPM Utilities", 889, 9.427, false, "Performs TPM operations, e.g., Seal, Unseal, GetRand, PCR Extend"},
		{"Crypto", 2262, 31.380, false, "General purpose cryptographic operations, RSA, SHA-1, SHA-512 etc."},
		{"Memory Management", 657, 12.511, false, "Implementation of malloc/free/realloc"},
		{"Secure Channel", 292, 2.021, false, "Generates a keypair, seals private key, returns public key"},
	}
}

// TCBSize sums the lines of code for a set of linked modules, the number
// the paper's "as few as 250 lines" headline is about (SLB Core + OS
// Protection + the application's own logic).
func TCBSize(modules []string) (loc int, sizeKB float64, err error) {
	inv := make(map[string]ModuleInfo)
	for _, m := range ModuleInventory() {
		inv[m.Name] = m
	}
	seen := map[string]bool{}
	// SLB Core is always included.
	loc = inv["SLB Core"].LOC
	sizeKB = inv["SLB Core"].SizeKB
	seen["SLB Core"] = true
	for _, name := range modules {
		if seen[name] {
			continue
		}
		mi, ok := inv[name]
		if !ok {
			return 0, 0, fmt.Errorf("pal: unknown module %q", name)
		}
		seen[name] = true
		loc += mi.LOC
		sizeKB += mi.SizeKB
	}
	return loc, sizeKB, nil
}
