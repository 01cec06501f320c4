package tpm

import (
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
)

// Wrapped-key management (TPM 1.2 Part 3 §10). Keys other than the SRK
// live OUTSIDE the TPM as wrapped blobs: the private half is encrypted
// under the parent storage key and bound to this TPM with tpmProof. The
// OS's TPM software stack loads blobs into volatile handles with LoadKey2
// and evicts them with FlushSpecific; a reboot clears every loaded handle,
// so the tqd must reload its AIK blob after a power cycle.

// Key usage values (TPM_KEY_USAGE).
const (
	KeyUsageSigning  uint16 = 0x0010
	KeyUsageStorage  uint16 = 0x0011
	KeyUsageIdentity uint16 = 0x0012
)

// Additional ordinals for key management.
const (
	OrdCreateWrapKey uint32 = 0x0000001F
	OrdSign          uint32 = 0x0000003C
	OrdFlushSpecific uint32 = 0x000000BA
)

// wrapKeyLocked appends bytes32(blob) to w, where blob wraps priv: usage
// and usageAuth travel with the encrypted private key; the public half is
// plaintext.
func (t *TPM) wrapKeyLocked(w *buf, priv *palcrypto.RSAPrivateKey, usage uint16, usageAuth Digest) uint32 {
	privRaw := palcrypto.MarshalPrivateKey(priv)
	defer clear(privRaw)
	t.scratch.pt = growScratch(t.scratch.pt, 2+2*DigestSize+4+len(privRaw))
	p := buf{b: t.scratch.pt[:0]}
	p.u16(usage)
	p.raw(usageAuth[:])
	p.raw(t.tpmProof[:])
	p.bytes32(privRaw)
	return t.sealEnvelopeLocked(w, &wrappedKey, p.b, func(w *buf) {
		w.bytes32(palcrypto.MarshalPublicKey(&priv.RSAPublicKey))
	})
}

// unwrapKeyLocked opens a wrapped key blob.
func (t *TPM) unwrapKeyLocked(blob []byte) (*loadedKey, uint32) {
	var pubRaw []byte
	pt, rc := t.openEnvelopeLocked(blob, &wrappedKey, func(r rdr) (_ rdr, err error) {
		pubRaw, err = r.bytes32()
		return r, err
	})
	if rc != RCSuccess {
		return nil, rc
	}
	pr := &rdr{b: pt}
	usage, err1 := pr.u16()
	ua, err2 := pr.raw(DigestSize)
	_, err3 := pr.raw(DigestSize) // tpmProof, already checked
	privRaw, err := pr.bytes32()
	if err1 != nil || err2 != nil || err3 != nil || err != nil {
		return nil, RCBadParameter
	}
	priv, err := palcrypto.UnmarshalPrivateKey(privRaw)
	if err != nil {
		return nil, RCBadParameter
	}
	// Cross-check the plaintext public half against the wrapped private.
	pub, err := palcrypto.UnmarshalPublicKey(pubRaw)
	if err != nil || pub.N.Cmp(priv.N) != 0 {
		return nil, RCBadParameter
	}
	lk := &loadedKey{priv: priv, isAIK: usage == KeyUsageIdentity}
	copy(lk.usageAuth[:], ua)
	return lk, RCSuccess
}

// cmdCreateWrapKey generates a keypair wrapped under the SRK.
// Params: parentHandle(4) || keyUsage(2) || usageAuth(20). Auth targets the
// parent (the SRK).
func (t *TPM) cmdCreateWrapKey(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMMakeIdentity, Label: "tpm.createwrapkey"})
	if tag != tagRQUAuth1 {
		return nil, RCAuthFail
	}
	params, tr, err := splitAuth1(body)
	if err != nil {
		return nil, RCBadParameter
	}
	r := &rdr{b: params}
	parent, err := r.u32()
	if err != nil || parent != KHSRK {
		return nil, RCBadIndex
	}
	usage, err := r.u16()
	if err != nil {
		return nil, RCBadParameter
	}
	switch usage {
	case KeyUsageSigning, KeyUsageStorage, KeyUsageIdentity:
	default:
		return nil, RCBadParameter
	}
	uab, err := r.raw(DigestSize)
	if err != nil {
		return nil, RCBadParameter
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdCreateWrapKey, params, tr, ETKeyHandle, parent)
	if rc != RCSuccess {
		return nil, rc
	}
	priv, err := palcrypto.GenerateRSAKey(t.rng, t.keyBits)
	if err != nil {
		return nil, RCFail
	}
	w := t.respBuf()
	if rc := t.wrapKeyLocked(w, priv, usage, Digest(uab)); rc != RCSuccess {
		return nil, rc
	}
	w.bytes32(palcrypto.MarshalPublicKey(&priv.RSAPublicKey))
	return appendResponseAuth(w, authKey, RCSuccess, OrdCreateWrapKey, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}

// cmdLoadKey2Blob loads a wrapped key blob into a volatile handle.
// Params: parentHandle(4) || bytes32(blob).
func (t *TPM) cmdLoadKey2Blob(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMLoadKey, Label: "tpm.loadkey"})
	r := &rdr{b: body}
	parent, err := r.u32()
	if err != nil || parent != KHSRK {
		return nil, RCBadIndex
	}
	blob, err := r.bytes32()
	if err != nil {
		return nil, RCBadParameter
	}
	lk, rc := t.unwrapKeyLocked(blob)
	if rc != RCSuccess {
		return nil, rc
	}
	if len(t.keys) >= 16 {
		return nil, RCResources // volatile key slots are scarce on real parts
	}
	h := t.nextHandle
	t.nextHandle++
	t.keys[h] = lk
	w := t.respBuf()
	w.u32(h)
	return w.b, RCSuccess
}

// cmdFlushSpecific evicts a loaded key. Params: handle(4).
func (t *TPM) cmdFlushSpecific(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMPCRRead, Label: "tpm.flush"})
	r := &rdr{b: body}
	h, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	if h == KHSRK {
		return nil, RCBadIndex // the SRK is not evictable
	}
	if _, ok := t.keys[h]; !ok {
		return nil, RCBadIndex
	}
	delete(t.keys, h)
	return nil, RCSuccess
}

// cmdSign signs data with a loaded signing key.
// Params: keyHandle(4) || bytes32(data). Auth targets the key.
func (t *TPM) cmdSign(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMQuote / 2, Label: "tpm.sign"})
	if tag != tagRQUAuth1 {
		return nil, RCAuthFail
	}
	params, tr, err := splitAuth1(body)
	if err != nil {
		return nil, RCBadParameter
	}
	r := &rdr{b: params}
	kh, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	data, err := r.bytes32()
	if err != nil {
		return nil, RCBadParameter
	}
	key, ok := t.keys[kh]
	if !ok {
		return nil, RCBadIndex
	}
	if key.isAIK {
		// AIKs only sign TPM-internal structures (quotes), never raw data.
		return nil, RCBadParameter
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdSign, params, tr, ETKeyHandle, kh)
	if rc != RCSuccess {
		return nil, rc
	}
	w := t.respBuf()
	if palcrypto.SignPKCS1SHA1To(w.field32(key.priv.Size()), key.priv, data) != nil {
		return nil, RCFail
	}
	return appendResponseAuth(w, authKey, RCSuccess, OrdSign, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}
