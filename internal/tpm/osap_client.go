package tpm

import "encoding/binary"

// OSAP client support. The paper's TPM Utilities module implements "the
// OIAP and OSAP sessions necessary to authorize Seal and Unseal" (Section
// 5.1.2). OSAP derives a per-session shared secret from the entity's usage
// secret, so the secret itself is never used directly as a MAC key — the
// preferred mode for Seal in the TPM 1.2 specification.

// runAuth1OSAP executes an authorized command under an OSAP session bound
// to the given entity.
func (c *Client) runAuth1OSAP(ordinal uint32, params []byte, entityType uint16, entityValue uint32, secret Digest) ([]byte, error) {
	if err := c.bus.RequestUse(c.loc); err != nil {
		return nil, err
	}
	defer c.bus.Release(c.loc)

	// OSAP: send entity + nonceOddOSAP, derive the shared secret.
	var nonceOddOSAP Digest
	c.rng.Read(nonceOddOSAP[:])
	var body [2 + 4 + DigestSize]byte
	binary.BigEndian.PutUint16(body[:], entityType)
	binary.BigEndian.PutUint32(body[2:], entityValue)
	copy(body[6:], nonceOddOSAP[:])
	out, err := c.submit(OrdOSAP, body[:])
	if err != nil {
		return nil, err
	}
	r := &rdr{b: out}
	handle, err := r.u32()
	if err != nil {
		return nil, err
	}
	nonceEven, err := r.raw(DigestSize)
	if err != nil {
		return nil, err
	}
	nonceEvenOSAP, err := r.raw(DigestSize)
	if err != nil {
		return nil, err
	}
	shared := osapSecret(secret, Digest(nonceEvenOSAP), nonceOddOSAP)
	return c.runInSession(ordinal, params, shared, handle, Digest(nonceEven))
}

// SealOSAP is Seal authorized via an OSAP session on the SRK, the mode the
// TPM 1.2 specification prescribes for Seal.
func (c *Client) SealOSAP(srkAuth Digest, sel PCRSelection, digestAtRelease Digest, data []byte) ([]byte, error) {
	w := c.params()
	w.u32(KHSRK)
	w.raw(digestAtRelease[:])
	sel.marshal(w)
	w.bytes32(data)
	out, err := c.runAuth1OSAP(OrdSeal, w.b, ETKeyHandle, KHSRK, srkAuth)
	if err != nil {
		return nil, err
	}
	return copyField(out)
}

// UnsealOSAP is Unseal authorized via an OSAP session on the SRK.
func (c *Client) UnsealOSAP(srkAuth Digest, blob []byte) ([]byte, error) {
	w := c.params()
	w.u32(KHSRK)
	w.bytes32(blob)
	out, err := c.runAuth1OSAP(OrdUnseal, w.b, ETKeyHandle, KHSRK, srkAuth)
	if err != nil {
		return nil, err
	}
	return takeField(nil, out)
}
