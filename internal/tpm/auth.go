package tpm

import (
	"encoding/binary"

	"flicker/internal/palcrypto"
)

// TPM 1.2 authorization sessions. OIAP sessions authorize commands with an
// HMAC keyed by the target entity's usage secret; OSAP sessions derive a
// shared secret bound to one entity at session setup. The paper's "TPM
// Utilities" PAL module implements exactly these two session types to
// authorize Seal and Unseal (Section 5.1.2).

type sessionType int

const (
	sessionOIAP sessionType = iota
	sessionOSAP
)

type session struct {
	typ          sessionType
	nonceEven    Digest
	sharedSecret Digest // OSAP only
	entityType   uint16 // OSAP only
	entityValue  uint32 // OSAP only
}

// newNonce draws a fresh nonce from the TPM RNG.
func (t *TPM) newNonce() Digest {
	var n Digest
	t.rng.Read(n[:])
	return n
}

// oiapLocked creates an OIAP session, returning (handle, nonceEven).
func (t *TPM) oiapLocked() (uint32, Digest) {
	h := t.nextSession
	t.nextSession++
	s := session{typ: sessionOIAP, nonceEven: t.newNonce()}
	t.sessions[h] = s
	return h, s.nonceEven
}

// osapLocked creates an OSAP session bound to an entity. nonceOddOSAP comes
// from the caller; the shared secret is HMAC(entityAuth, nonceEvenOSAP ||
// nonceOddOSAP).
func (t *TPM) osapLocked(entityType uint16, entityValue uint32, nonceOddOSAP Digest) (handle uint32, nonceEven, nonceEvenOSAP Digest, rc uint32) {
	auth, rc := t.entityAuthLocked(entityType, entityValue)
	if rc != RCSuccess {
		return 0, Digest{}, Digest{}, rc
	}
	nonceEvenOSAP = t.newNonce()
	h := t.nextSession
	t.nextSession++
	s := session{
		typ:          sessionOSAP,
		nonceEven:    t.newNonce(),
		sharedSecret: osapSecret(auth, nonceEvenOSAP, nonceOddOSAP),
		entityType:   entityType,
		entityValue:  entityValue,
	}
	t.sessions[h] = s
	return h, s.nonceEven, nonceEvenOSAP, RCSuccess
}

// entityAuthLocked returns the usage secret for an entity addressed by an
// OSAP request or an OIAP-authorized command.
func (t *TPM) entityAuthLocked(entityType uint16, entityValue uint32) (Digest, uint32) {
	switch entityType {
	case ETOwner:
		return t.ownerAuth, RCSuccess
	case ETKeyHandle:
		if entityValue == KHSRK {
			return t.srkAuth, RCSuccess
		}
		if k, ok := t.keys[entityValue]; ok {
			return k.usageAuth, RCSuccess
		}
		return Digest{}, RCBadIndex
	default:
		return Digest{}, RCBadParameter
	}
}

// authTrailer is the TPM 1.2 auth1 block appended to authorized commands:
// authHandle(4) || nonceOdd(20) || continueAuthSession(1) || authValue(20).
type authTrailer struct {
	handle   uint32
	nonceOdd Digest
	cont     bool
	auth     Digest
}

const authTrailerLen = 4 + DigestSize + 1 + DigestSize

// splitAuth1 splits an auth1 command body into parameters and trailer.
func splitAuth1(body []byte) (params []byte, tr authTrailer, err error) {
	if len(body) < authTrailerLen {
		return nil, tr, errTruncated
	}
	params = body[:len(body)-authTrailerLen]
	r := &rdr{b: body[len(body)-authTrailerLen:]}
	tr.handle, _ = r.u32()
	no, _ := r.raw(DigestSize)
	copy(tr.nonceOdd[:], no)
	c, _ := r.u8()
	tr.cont = c != 0
	av, _ := r.raw(DigestSize)
	copy(tr.auth[:], av)
	return params, tr, nil
}

// osapSecret derives an OSAP session's shared secret:
// HMAC(entityAuth, nonceEvenOSAP || nonceOddOSAP).
func osapSecret(auth, nonceEvenOSAP, nonceOddOSAP Digest) Digest {
	var msg [2 * DigestSize]byte
	copy(msg[:], nonceEvenOSAP[:])
	copy(msg[DigestSize:], nonceOddOSAP[:])
	return palcrypto.HMACSHA1(auth[:], msg[:])
}

// authMAC computes the command authorization HMAC per TPM 1.2 Part 1 §13:
// HMAC(key, SHA1(ordinal || params) || nonceEven || nonceOdd || continue).
func authMAC(key Digest, ordinal uint32, params []byte, nonceEven, nonceOdd Digest, cont bool) Digest {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], ordinal)
	return authHMAC(key, hdr[:], params, nonceEven, nonceOdd, cont)
}

// responseMAC computes the response authorization HMAC:
// HMAC(key, SHA1(returnCode || ordinal || outParams) || nonceEven' ||
// nonceOdd || continue).
func responseMAC(key Digest, rc, ordinal uint32, outParams []byte, nonceEven, nonceOdd Digest, cont bool) Digest {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:], rc)
	binary.BigEndian.PutUint32(hdr[4:], ordinal)
	return authHMAC(key, hdr[:], outParams, nonceEven, nonceOdd, cont)
}

// authHMAC computes HMAC(key, SHA1(hdr || params) || nonceEven || nonceOdd
// || continue), streaming the parameters into a stack SHA-1 and MACing a
// stack array.
func authHMAC(key Digest, hdr, params []byte, nonceEven, nonceOdd Digest, cont bool) Digest {
	var h palcrypto.SHA1
	h.Reset()
	h.Write(hdr)
	h.Write(params)
	var m [3*DigestSize + 1]byte
	h.SumInto((*[DigestSize]byte)(m[:DigestSize]))
	copy(m[DigestSize:], nonceEven[:])
	copy(m[2*DigestSize:], nonceOdd[:])
	if cont {
		m[3*DigestSize] = 1
	}
	return palcrypto.HMACSHA1(key[:], m[:])
}

// verifyAuthLocked checks an auth trailer for a command targeting the given
// entity. On success it rolls the session nonce and returns the key to MAC
// the response with, along with the fresh nonceEven.
func (t *TPM) verifyAuthLocked(ordinal uint32, params []byte, tr authTrailer, entityType uint16, entityValue uint32) (key Digest, nonceEven Digest, rc uint32) {
	s, ok := t.sessions[tr.handle]
	if !ok {
		return Digest{}, Digest{}, RCAuthFail
	}
	switch s.typ {
	case sessionOIAP:
		auth, arc := t.entityAuthLocked(entityType, entityValue)
		if arc != RCSuccess {
			return Digest{}, Digest{}, arc
		}
		key = auth
	case sessionOSAP:
		if s.entityType != entityType || s.entityValue != entityValue {
			return Digest{}, Digest{}, RCAuthFail
		}
		key = s.sharedSecret
	}
	want := authMAC(key, ordinal, params, s.nonceEven, tr.nonceOdd, tr.cont)
	if !palcrypto.ConstantTimeEqual(want[:], tr.auth[:]) {
		delete(t.sessions, tr.handle)
		return Digest{}, Digest{}, RCAuthFail
	}
	// Roll the even nonce; close the session unless continueAuthSession.
	nonceEven = t.newNonce()
	if tr.cont {
		s.nonceEven = nonceEven
		t.sessions[tr.handle] = s
	} else {
		delete(t.sessions, tr.handle)
	}
	return key, nonceEven, RCSuccess
}

// appendResponseAuth appends nonceEven || continue || responseMAC to the
// response body in w (the TPM's respBuf, so the trailer reuses its
// capacity) and returns the body.
func appendResponseAuth(w *buf, key Digest, rc, ordinal uint32, nonceEven, nonceOdd Digest, cont bool) []byte {
	mac := responseMAC(key, rc, ordinal, w.b, nonceEven, nonceOdd, cont)
	w.raw(nonceEven[:])
	if cont {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.raw(mac[:])
	return w.b
}
