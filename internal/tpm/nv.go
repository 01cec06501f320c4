package tpm

import (
	"flicker/internal/simtime"
	"time"
)

func time64(n int) time.Duration { return time.Duration(n) }

// NV storage commands. The paper (Section 4.3.2) uses the TPM's
// non-volatile storage facility, with PCR-gated access, to hold the secure
// counter that defeats replay attacks against sealed storage: "Setting the
// PCR requirements to match those specified during the TPM Seal command
// creates an environment where a counter value stored in non-volatile
// storage is only available to the desired PAL."

// cmdNVDefineSpace defines an NV index (owner-authorized).
// Params: index(4) || size(4) || hasPCRReq(1) ||
//
//	[pcrSelRead || digestRead(20) || pcrSelWrite || digestWrite(20)]
func (t *TPM) cmdNVDefineSpace(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMNVWrite, Label: "tpm.nvdefine"})
	if tag != tagRQUAuth1 {
		return nil, RCAuthFail
	}
	params, tr, err := splitAuth1(body)
	if err != nil {
		return nil, RCBadParameter
	}
	r := &rdr{b: params}
	index, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	size, err := r.u32()
	if err != nil || size == 0 || size > 1<<16 {
		return nil, RCBadParameter
	}
	hasReq, err := r.u8()
	if err != nil {
		return nil, RCBadParameter
	}
	sp := &nvSpace{data: make([]byte, size)}
	if hasReq != 0 {
		sp.hasPCRReq = true
		if sp.pcrRead, err = parsePCRSelection(r); err != nil {
			return nil, RCBadParameter
		}
		d, err := r.raw(DigestSize)
		if err != nil {
			return nil, RCBadParameter
		}
		copy(sp.digRead[:], d)
		if sp.pcrWrite, err = parsePCRSelection(r); err != nil {
			return nil, RCBadParameter
		}
		d, err = r.raw(DigestSize)
		if err != nil {
			return nil, RCBadParameter
		}
		copy(sp.digWrite[:], d)
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdNVDefineSpace, params, tr, ETOwner, KHOwner)
	if rc != RCSuccess {
		return nil, rc
	}
	if _, exists := t.nv[index]; exists {
		return nil, RCBadIndex
	}
	t.nv[index] = sp
	return appendResponseAuth(t.respBuf(), authKey, RCSuccess, OrdNVDefineSpace, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}

// nvGateOK checks a space's PCR requirement for read or write.
func (t *TPM) nvGateOK(sel PCRSelection, want Digest) bool {
	if sel.Count() == 0 {
		return true
	}
	return t.compositeLocked(sel) == want
}

// cmdNVWriteValue writes data into an NV index at an offset.
// Params: index(4) || offset(4) || bytes32(data).
func (t *TPM) cmdNVWriteValue(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMNVWrite, Label: "tpm.nvwrite"})
	r := &rdr{b: body}
	index, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	off, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	data, err := r.bytes32()
	if err != nil {
		return nil, RCBadParameter
	}
	sp, ok := t.nv[index]
	if !ok {
		return nil, RCBadIndex
	}
	if sp.hasPCRReq && !t.nvGateOK(sp.pcrWrite, sp.digWrite) {
		return nil, RCAreaLocked
	}
	if int(off)+len(data) > len(sp.data) {
		return nil, RCBadParameter
	}
	copy(sp.data[off:], data)
	return nil, RCSuccess
}

// cmdNVReadValue reads from an NV index.
// Params: index(4) || offset(4) || length(4).
func (t *TPM) cmdNVReadValue(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMNVRead, Label: "tpm.nvread"})
	r := &rdr{b: body}
	index, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	off, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	n, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	sp, ok := t.nv[index]
	if !ok {
		return nil, RCBadIndex
	}
	if sp.hasPCRReq && !t.nvGateOK(sp.pcrRead, sp.digRead) {
		return nil, RCAreaLocked
	}
	if int(off)+int(n) > len(sp.data) {
		return nil, RCBadParameter
	}
	w := &buf{}
	w.bytes32(sp.data[off : int(off)+int(n)])
	return w.b, RCSuccess
}
