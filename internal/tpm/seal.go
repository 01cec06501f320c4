package tpm

import (
	"encoding/binary"

	"flicker/internal/palcrypto"
)

// Sealed-storage blobs and wrapped keys share one envelope. TPM_Seal
// produces a ciphertext that only this TPM can open, and only when the PCRs
// named at seal time hold the values named at seal time (Section 2.2 of the
// paper); a wrapped key carries a private key the same way. The blob
// travels through untrusted hands (the OS stores it on disk), so it is
// encrypted and authenticated, and its plaintext embeds tpmProof — a secret
// known only to this TPM — so that forged blobs are rejected.
//
// Envelope layout:
//
//	magic     (8 bytes: "FLKRSEAL" or "FLKRKEY1")
//	header    (cleartext fields; see sealedBlob and wrappedKey)
//	encSeed   (bytes32: PKCS#1 under the SRK public key)
//	ct        (bytes32: AES-128-CTR of the plaintext under K_enc(seed))
//	mac       (20 bytes: HMAC-SHA1 under K_mac(seed) of everything above)
//
// K_enc = SHA1("seal-enc|" || label || seed)[:16] and K_mac =
// SHA1("seal-mac|" || label || seed). The MAC is checked before anything is
// decrypted.

// envelopeKind parameterises the envelope for one blob type.
type envelopeKind struct {
	magic   string
	label   string // key-derivation label
	proofAt int    // offset of tpmProof in the plaintext
	// reject is the single return code for a malformed, foreign or
	// tampered blob, whichever check fails, so a failure says nothing
	// about where the blob went wrong.
	reject uint32
}

var (
	// sealedBlob: header = pcrSelection || digestAtRelease (all-zero if no
	// PCR binding); plaintext = tpmProof || bytes32(data).
	sealedBlob = envelopeKind{magic: "FLKRSEAL", proofAt: 0, reject: RCNotSealedBlob}
	// wrappedKey: header = bytes32(public key); plaintext = usage(2) ||
	// usageAuth(20) || tpmProof || bytes32(private key).
	wrappedKey = envelopeKind{magic: "FLKRKEY1", label: "wrapkey|", proofAt: 2 + DigestSize, reject: RCBadParameter}
)

// envelopeScratch is the TPM's working state for envelope commands. Like
// rbody it is valid only under t.mu; dispatch scrubs it after every command,
// so no seed, key, round key or plaintext outlives the command that used it.
type envelopeScratch struct {
	seed   [16]byte
	encKey [palcrypto.SHA1Size]byte // the first 16 bytes key AES-128
	macKey [palcrypto.SHA1Size]byte
	aes    palcrypto.AES
	// pt holds the decrypted PKCS#1 seed block, then the plaintext.
	pt []byte
}

// maxRetainedPT bounds the plaintext scratch kept between commands.
const maxRetainedPT = 4096

// scrub zeroes every secret the scratch held. Writes to pt stay within the
// length growScratch set, so clearing pt[:len] clears them all, and a
// command that never used pt pays nothing.
func (e *envelopeScratch) scrub() {
	clear(e.seed[:])
	clear(e.encKey[:])
	clear(e.macKey[:])
	e.aes.Zero()
	clear(e.pt)
	e.pt = e.pt[:0]
	if cap(e.pt) > maxRetainedPT {
		e.pt = nil
	}
}

// deriveKeys sets encKey and macKey from the seed under a kind's label.
func (e *envelopeScratch) deriveKeys(label string, seed []byte) {
	deriveKey(&e.encKey, "seal-enc|", label, seed)
	deriveKey(&e.macKey, "seal-mac|", label, seed)
}

func deriveKey(out *[palcrypto.SHA1Size]byte, prefix, label string, seed []byte) {
	var h palcrypto.SHA1
	h.Reset()
	h.Write([]byte(prefix))
	h.Write([]byte(label))
	h.Write(seed)
	h.SumInto(out)
	h = palcrypto.SHA1{}
}

// sealEnvelopeLocked appends bytes32(blob) to w, where blob is the kind's
// envelope around plain, with the cleartext fields header writes. The blob
// is built in place: the seed ciphertext and the AES-CTR ciphertext are
// written straight into w.
func (t *TPM) sealEnvelopeLocked(w *buf, kind *envelopeKind, plain []byte, header func(*buf)) uint32 {
	e := &t.scratch
	t.rng.Read(e.seed[:])
	e.deriveKeys(kind.label, e.seed[:])

	lenAt := len(w.b)
	w.u32(0) // blob length, patched below
	start := len(w.b)
	w.b = append(w.b, kind.magic...)
	header(w)
	if palcrypto.EncryptPKCS1To(w.field32(t.srk.Size()), t.rng, &t.srk.RSAPublicKey, e.seed[:]) != nil {
		return RCFail
	}
	w.bytes32(plain)
	e.aes.SetKey(e.encKey[:16])
	var iv [16]byte // a fresh seed per blob makes a zero IV safe
	e.aes.CTRKeystream(iv, w.b[len(w.b)-len(plain):])
	mac := palcrypto.HMACSHA1(e.macKey[:], w.b[start:])
	w.raw(mac[:])
	binary.BigEndian.PutUint32(w.b[lenAt:], uint32(len(w.b)-start))
	return RCSuccess
}

// openEnvelopeLocked checks a blob's magic, lets header parse the cleartext
// fields (it returns the reader advanced past them), authenticates the
// envelope, and decrypts it. It returns the plaintext, held in the TPM's
// scratch until the command returns, after checking its tpmProof. Any
// failure returns kind.reject.
func (t *TPM) openEnvelopeLocked(blob []byte, kind *envelopeKind, header func(rdr) (rdr, error)) ([]byte, uint32) {
	r := &rdr{b: blob}
	magic, err := r.raw(len(kind.magic))
	if err != nil || string(magic) != kind.magic {
		return nil, kind.reject
	}
	if *r, err = header(*r); err != nil {
		return nil, kind.reject
	}
	encSeed, err := r.bytes32()
	if err != nil {
		return nil, kind.reject
	}
	ct, err := r.bytes32()
	if err != nil {
		return nil, kind.reject
	}
	macGot, err := r.raw(DigestSize)
	if err != nil || !r.empty() {
		return nil, kind.reject
	}

	e := &t.scratch
	e.pt = growScratch(e.pt, max(t.srk.Size(), len(ct)))
	seed, err := palcrypto.DecryptPKCS1To(e.pt, t.srk, encSeed)
	if err != nil {
		return nil, kind.reject
	}
	e.deriveKeys(kind.label, seed)
	macWant := palcrypto.HMACSHA1(e.macKey[:], blob[:len(blob)-DigestSize])
	if !palcrypto.ConstantTimeEqual(macGot, macWant[:]) {
		return nil, kind.reject
	}

	pt := e.pt[:len(ct)]
	copy(pt, ct)
	e.aes.SetKey(e.encKey[:16])
	var iv [16]byte
	e.aes.CTRKeystream(iv, pt)
	if len(pt) < kind.proofAt+DigestSize ||
		!palcrypto.ConstantTimeEqual(pt[kind.proofAt:kind.proofAt+DigestSize], t.tpmProof[:]) {
		return nil, kind.reject
	}
	return pt, RCSuccess
}

// growScratch returns b with length n, reallocating only when its capacity
// is short. Retired storage is zeroed first: it may hold a previous
// command's plaintext.
func growScratch(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	clear(b[:cap(b)])
	return make([]byte, n)
}

// sealLocked appends bytes32(blob) to w, binding data to (sel,
// digestAtRelease). An empty selection (Count()==0) means no PCR binding.
func (t *TPM) sealLocked(w *buf, sel PCRSelection, digestAtRelease Digest, data []byte) uint32 {
	t.scratch.pt = growScratch(t.scratch.pt, DigestSize+4+len(data))
	p := buf{b: t.scratch.pt[:0]}
	p.raw(t.tpmProof[:])
	p.bytes32(data)
	return t.sealEnvelopeLocked(w, &sealedBlob, p.b, func(w *buf) {
		sel.marshal(w)
		w.raw(digestAtRelease[:])
	})
}

// unsealLocked opens a sealed blob, enforcing tpmProof and the PCR binding
// against the TPM's current PCR values. The data returned lives in the
// TPM's scratch until the command returns.
func (t *TPM) unsealLocked(blob []byte) ([]byte, uint32) {
	var sel PCRSelection
	var dar []byte
	pt, rc := t.openEnvelopeLocked(blob, &sealedBlob, func(r rdr) (_ rdr, err error) {
		if sel, err = parsePCRSelection(&r); err == nil {
			dar, err = r.raw(DigestSize)
		}
		return r, err
	})
	if rc != RCSuccess {
		return nil, rc
	}
	data, err := (&rdr{b: pt[DigestSize:]}).bytes32()
	if err != nil {
		return nil, RCNotSealedBlob
	}
	if sel.Count() > 0 && t.compositeLocked(sel) != Digest(dar) {
		return nil, RCWrongPCRVal
	}
	return data, RCSuccess
}
