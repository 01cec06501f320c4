package tpm

import (
	"bytes"
	"fmt"

	"flicker/internal/hw/tis"
	"flicker/internal/palcrypto"
)

// Client is a TPM driver: it marshals commands, runs authorization
// sessions, and verifies response MACs. Two instances exist in a Flicker
// platform: the untrusted OS's TPM software stack (locality 0) and the
// PAL's in-SLB TPM driver (locality 2) — the paper's "TPM Driver" and "TPM
// Utilities" modules.
//
// A Client is not safe for concurrent use (the nonce rng is stateful);
// that existing contract is what makes the per-client scratch buffers
// below safe. The client owns its response buffer, as a real driver owns
// the buffer it drains the TIS FIFO into: a response body is valid only
// until the client's next command, so every method that hands bytes back
// (blobs, plaintext, signatures, NV data) copies them out exactly once,
// and the caller owns the copy.
type Client struct {
	bus *tis.Bus
	loc tis.Locality
	rng *palcrypto.PRNG

	// Scratch reused across commands on the session hot path. pbuf holds
	// command parameters while they are built; cmd holds the framed
	// command handed to the bus; rsp holds the response frame. All three
	// are overwritten by the next command: submits are synchronous and the
	// TPM copies what it keeps. Scrub zeroes them.
	pbuf buf
	cmd  []byte
	rsp  []byte
}

// NewClient creates a driver bound to a locality on the given bus.
func NewClient(bus *tis.Bus, loc tis.Locality, nonceSeed []byte) *Client {
	return &Client{bus: bus, loc: loc, rng: palcrypto.NewPRNG(nonceSeed)}
}

// Locality returns the locality this driver issues commands at.
func (c *Client) Locality() tis.Locality { return c.loc }

// Reseed resets the client's nonce generator to the state NewClient with the
// same seed would produce. It lets a session reuse a cached driver while
// keeping the nonce stream identical to a freshly constructed one.
func (c *Client) Reseed(nonceSeed []byte) { c.rng.Reseed(nonceSeed) }

// Scrub zeroes the client's command, parameter and response scratch, which
// hold the last command's plaintext (Seal data, Unseal output, random
// bytes). The session engine scrubs the PAL's driver before the OS resumes.
func (c *Client) Scrub() {
	clear(c.pbuf.b[:cap(c.pbuf.b)])
	clear(c.cmd[:cap(c.cmd)])
	clear(c.rsp[:cap(c.rsp)])
}

// Scrubbed reports whether every scratch byte is zero, as Scrub leaves it.
func (c *Client) Scrubbed() bool {
	for _, b := range [][]byte{c.pbuf.b, c.cmd, c.rsp} {
		for _, v := range b[:cap(b)] {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// params resets and returns the client's parameter scratch buffer. The
// returned buffer is valid until the next params call — long enough to
// build one command's body and hand it to run/runAuth1, which copy it
// into the frame scratch.
func (c *Client) params() *buf {
	c.pbuf.b = c.pbuf.b[:0]
	return &c.pbuf
}

// CommandError is a non-zero TPM return code surfaced as a Go error.
type CommandError struct {
	Ordinal uint32
	Code    uint32
}

// Error includes the ordinal and the TPM return code.
func (e *CommandError) Error() string {
	return fmt.Sprintf("tpm: ordinal %#x failed with return code %#x", e.Ordinal, e.Code)
}

// IsCode reports whether err is a CommandError with the given return code.
func IsCode(err error, code uint32) bool {
	ce, ok := err.(*CommandError)
	return ok && ce.Code == code
}

// unframe returns the body of a successful response to ordinal.
func unframe(ordinal uint32, resp []byte) ([]byte, error) {
	_, rc, out, err := parseFrame(resp)
	if err != nil {
		return nil, err
	}
	if rc != RCSuccess {
		return nil, &CommandError{Ordinal: ordinal, Code: rc}
	}
	return out, nil
}

// run frames, submits, and unframes one unauthorized command, claiming the
// locality for it. The body it returns lives in the response scratch,
// valid until the next command.
func (c *Client) run(ordinal uint32, body []byte) ([]byte, error) {
	if err := c.bus.RequestUse(c.loc); err != nil {
		return nil, err
	}
	defer c.bus.Release(c.loc)
	return c.submit(ordinal, body)
}

// submit is run for a caller that already holds its locality.
func (c *Client) submit(ordinal uint32, body []byte) ([]byte, error) {
	c.cmd = appendCommand(c.cmd, tagRQUCommand, ordinal, body)
	return c.exchange(ordinal)
}

// exchange submits the framed command in c.cmd at the locality the caller
// holds and reads the response into the response scratch.
func (c *Client) exchange(ordinal uint32) ([]byte, error) {
	resp, err := c.bus.SubmitTo(c.rsp[:0], c.loc, c.cmd)
	if err != nil {
		return nil, err
	}
	c.rsp = resp
	return unframe(ordinal, resp)
}

// runAuth1 executes an authorized command: it opens an OIAP session, MACs
// the parameters under secret, submits, and verifies the response MAC.
func (c *Client) runAuth1(ordinal uint32, params []byte, secret Digest) ([]byte, error) {
	if err := c.bus.RequestUse(c.loc); err != nil {
		return nil, err
	}
	defer c.bus.Release(c.loc)
	out, err := c.submit(OrdOIAP, nil)
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
	return c.runInSession(ordinal, params, secret, handle, Digest(nonceEven))
}

// runInSession executes an authorized command in the open session
// (handle, nonceEven), whose MAC key is key, and verifies the response
// MAC. The session closes with the command.
func (c *Client) runInSession(ordinal uint32, params []byte, key Digest, handle uint32, nonceEven Digest) ([]byte, error) {
	var nonceOdd Digest
	c.rng.Read(nonceOdd[:])
	auth := authMAC(key, ordinal, params, nonceEven, nonceOdd, false)
	// Frame body = params || auth1 trailer (handle || nonceOdd ||
	// continueAuthSession=0 || auth), built directly in the frame scratch
	// so the hot path marshals without allocating.
	w := &buf{b: c.cmd[:0]}
	w.u16(tagRQUAuth1)
	w.u32(uint32(10 + len(params) + authTrailerLen))
	w.u32(ordinal)
	w.raw(params)
	w.u32(handle)
	w.raw(nonceOdd[:])
	w.u8(0)
	w.raw(auth[:])
	c.cmd = w.b

	body, err := c.exchange(ordinal)
	if err != nil {
		return nil, err
	}
	// Response body = outParams || nonceEven'(20) || cont(1) || mac(20).
	trailerLen := DigestSize + 1 + DigestSize
	if len(body) < trailerLen {
		return nil, errTruncated
	}
	outParams := body[:len(body)-trailerLen]
	tb := body[len(body)-trailerLen:]
	want := responseMAC(key, RCSuccess, ordinal, outParams, Digest(tb[:DigestSize]), nonceOdd, tb[DigestSize] != 0)
	if !palcrypto.ConstantTimeEqual(want[:], tb[DigestSize+1:]) {
		return nil, fmt.Errorf("tpm: response MAC verification failed for ordinal %#x", ordinal)
	}
	// outParams lives in the response scratch: callers copy out what
	// they return.
	return outParams, nil
}

// Extend extends PCR idx with digest m and returns the new PCR value.
func (c *Client) Extend(idx int, m Digest) (Digest, error) {
	w := c.params()
	w.u32(uint32(idx))
	w.raw(m[:])
	out, err := c.run(OrdExtend, w.b)
	if err != nil {
		return Digest{}, err
	}
	var v Digest
	copy(v[:], out)
	return v, nil
}

// PCRRead returns the current value of PCR idx.
func (c *Client) PCRRead(idx int) (Digest, error) {
	w := c.params()
	w.u32(uint32(idx))
	out, err := c.run(OrdPCRRead, w.b)
	if err != nil {
		return Digest{}, err
	}
	var v Digest
	copy(v[:], out)
	return v, nil
}

// PCRReset issues a software reset of the selected PCRs (only 20-22 may
// succeed, and only from locality >= 2).
func (c *Client) PCRReset(sel PCRSelection) error {
	w := c.params()
	sel.marshal(w)
	_, err := c.run(OrdPCRReset, w.b)
	return err
}

// GetRandom returns n bytes from the TPM RNG.
func (c *Client) GetRandom(n int) ([]byte, error) {
	if n < 0 || n > maxRandomBytes {
		// Refused before the buffer is sized, with the code the TPM
		// would return.
		return nil, &CommandError{Ordinal: OrdGetRandom, Code: RCBadParameter}
	}
	out := make([]byte, n)
	if err := c.GetRandomInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetRandomInto fills dst from the TPM RNG and zeroes the bytes' copy in
// the response scratch.
func (c *Client) GetRandomInto(dst []byte) error {
	w := c.params()
	w.u32(uint32(len(dst)))
	out, err := c.run(OrdGetRandom, w.b)
	if err != nil {
		return err
	}
	r := &rdr{b: out}
	rnd, err := r.bytes32()
	if err != nil {
		return err
	}
	if len(rnd) != len(dst) {
		return errTruncated
	}
	copy(dst, rnd)
	clear(rnd)
	return nil
}

// GetVersion returns the TPM family version string and PCR count.
func (c *Client) GetVersion() (string, int, error) {
	w := c.params()
	w.u32(0)
	out, err := c.run(OrdGetCapability, w.b)
	if err != nil {
		return "", 0, err
	}
	r := &rdr{b: out}
	vb, err := r.raw(4)
	if err != nil {
		return "", 0, err
	}
	n, err := r.u32()
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%d.%d", vb[0], vb[1]), int(n), nil
}

// BootCount returns the TPM's platform reset count.
func (c *Client) BootCount() (int, error) {
	w := c.params()
	w.u32(1)
	out, err := c.run(OrdGetCapability, w.b)
	if err != nil {
		return 0, err
	}
	r := &rdr{b: out}
	n, err := r.u32()
	return int(n), err
}

// QuoteResult is a successful TPM_Quote: the composite over the selected
// PCRs and the AIK signature over TPM_QUOTE_INFO(composite, nonce).
type QuoteResult struct {
	Composite Digest
	Signature []byte
}

// Quote asks the TPM to sign (nonce, selected PCRs) with the AIK at handle.
func (c *Client) Quote(aikHandle uint32, aikAuth Digest, nonce Digest, sel PCRSelection) (*QuoteResult, error) {
	w := c.params()
	w.u32(aikHandle)
	w.raw(nonce[:])
	sel.marshal(w)
	out, err := c.runAuth1(OrdQuote, w.b, aikAuth)
	if err != nil {
		return nil, err
	}
	r := &rdr{b: out}
	cb, err := r.raw(DigestSize)
	if err != nil {
		return nil, err
	}
	sig, err := r.bytes32()
	if err != nil {
		return nil, err
	}
	q := &QuoteResult{Signature: bytes.Clone(sig)}
	copy(q.Composite[:], cb)
	return q, nil
}

// Seal binds data to (sel, digestAtRelease) under the SRK. srkAuth is the
// SRK usage secret (the TCG well-known all-zero value by default).
func (c *Client) Seal(srkAuth Digest, sel PCRSelection, digestAtRelease Digest, data []byte) ([]byte, error) {
	w := c.params()
	w.u32(KHSRK)
	w.raw(digestAtRelease[:])
	sel.marshal(w)
	w.bytes32(data)
	out, err := c.runAuth1(OrdSeal, w.b, srkAuth)
	if err != nil {
		return nil, err
	}
	return copyField(out)
}

// Unseal opens a sealed blob into a fresh slice the caller owns; it fails
// with RCWrongPCRVal if the PCR binding is not currently satisfied.
func (c *Client) Unseal(srkAuth Digest, blob []byte) ([]byte, error) {
	return c.AppendUnseal(nil, srkAuth, blob)
}

// AppendUnseal is Unseal appending the plaintext to dst, which the caller
// supplies and owns (nil gives a fresh slice). A dst with room for the
// plaintext makes the round trip allocation-free. On error it returns nil.
func (c *Client) AppendUnseal(dst []byte, srkAuth Digest, blob []byte) ([]byte, error) {
	w := c.params()
	w.u32(KHSRK)
	w.bytes32(blob)
	out, err := c.runAuth1(OrdUnseal, w.b, srkAuth)
	if err != nil {
		return nil, err
	}
	return takeField(dst, out)
}

// MakeIdentity creates a fresh AIK (owner-authorized) and returns its
// volatile handle, its public key, and the wrapped key blob the software
// stack stores on disk and reloads after reboots.
func (c *Client) MakeIdentity(ownerAuth Digest) (uint32, *palcrypto.RSAPublicKey, []byte, error) {
	out, err := c.runAuth1(OrdMakeIdentity, nil, ownerAuth)
	if err != nil {
		return 0, nil, nil, err
	}
	r := &rdr{b: out}
	h, err := r.u32()
	if err != nil {
		return 0, nil, nil, err
	}
	pkb, err := r.bytes32()
	if err != nil {
		return 0, nil, nil, err
	}
	pk, err := palcrypto.UnmarshalPublicKey(pkb)
	if err != nil {
		return 0, nil, nil, err
	}
	blob, err := r.bytes32()
	if err != nil {
		return 0, nil, nil, err
	}
	return h, pk, bytes.Clone(blob), nil
}

// CreateWrapKey generates a keypair of the given usage, wrapped under the
// SRK. It returns the blob (stored by untrusted software) and the public
// key; the private half exists outside the TPM only in encrypted form.
func (c *Client) CreateWrapKey(srkAuth Digest, usage uint16, usageAuth Digest) ([]byte, *palcrypto.RSAPublicKey, error) {
	w := c.params()
	w.u32(KHSRK)
	w.u16(usage)
	w.raw(usageAuth[:])
	out, err := c.runAuth1(OrdCreateWrapKey, w.b, srkAuth)
	if err != nil {
		return nil, nil, err
	}
	r := &rdr{b: out}
	blob, err := r.bytes32()
	if err != nil {
		return nil, nil, err
	}
	pkb, err := r.bytes32()
	if err != nil {
		return nil, nil, err
	}
	pk, err := palcrypto.UnmarshalPublicKey(pkb)
	if err != nil {
		return nil, nil, err
	}
	return bytes.Clone(blob), pk, nil
}

// LoadKey2 loads a wrapped key blob into a volatile handle.
func (c *Client) LoadKey2(blob []byte) (uint32, error) {
	w := c.params()
	w.u32(KHSRK)
	w.bytes32(blob)
	out, err := c.run(OrdLoadKey2, w.b)
	if err != nil {
		return 0, err
	}
	r := &rdr{b: out}
	return r.u32()
}

// FlushSpecific evicts a loaded key handle.
func (c *Client) FlushSpecific(handle uint32) error {
	w := c.params()
	w.u32(handle)
	_, err := c.run(OrdFlushSpecific, w.b)
	return err
}

// Sign signs data with a loaded signing key (PKCS#1 v1.5 over SHA-1).
func (c *Client) Sign(handle uint32, usageAuth Digest, data []byte) ([]byte, error) {
	w := c.params()
	w.u32(handle)
	w.bytes32(data)
	out, err := c.runAuth1(OrdSign, w.b, usageAuth)
	if err != nil {
		return nil, err
	}
	return copyField(out)
}

// NVDefineSpace defines an NV index of the given size. If pcrGated is
// non-nil, read and write access both require the selected PCRs to hold
// the composite digest given.
type NVPCRRequirement struct {
	Read        PCRSelection
	ReadDigest  Digest
	Write       PCRSelection
	WriteDigest Digest
}

// NVDefineSpace defines a non-volatile storage index (owner-authorized).
func (c *Client) NVDefineSpace(ownerAuth Digest, index uint32, size int, req *NVPCRRequirement) error {
	w := c.params()
	w.u32(index)
	w.u32(uint32(size))
	if req == nil {
		w.u8(0)
	} else {
		w.u8(1)
		req.Read.marshal(w)
		w.raw(req.ReadDigest[:])
		req.Write.marshal(w)
		w.raw(req.WriteDigest[:])
	}
	_, err := c.runAuth1(OrdNVDefineSpace, w.b, ownerAuth)
	return err
}

// NVWrite writes data at an offset within an NV index.
func (c *Client) NVWrite(index uint32, offset int, data []byte) error {
	w := c.params()
	w.u32(index)
	w.u32(uint32(offset))
	w.bytes32(data)
	_, err := c.run(OrdNVWriteValue, w.b)
	return err
}

// NVRead reads n bytes at an offset within an NV index.
func (c *Client) NVRead(index uint32, offset, n int) ([]byte, error) {
	w := c.params()
	w.u32(index)
	w.u32(uint32(offset))
	w.u32(uint32(n))
	out, err := c.run(OrdNVReadValue, w.b)
	if err != nil {
		return nil, err
	}
	return copyField(out)
}

// copyField returns a caller-owned copy of the length-prefixed field that
// opens a response body.
func copyField(out []byte) ([]byte, error) {
	r := &rdr{b: out}
	f, err := r.bytes32()
	if err != nil {
		return nil, err
	}
	return bytes.Clone(f), nil
}

// takeField appends the plaintext field that opens a response body to dst
// (nil gives a fresh slice) and zeroes the field in the response scratch,
// so the secret has one copy, the caller's.
func takeField(dst, out []byte) ([]byte, error) {
	r := &rdr{b: out}
	f, err := r.bytes32()
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = make([]byte, 0, len(f))
	}
	dst = append(dst, f...)
	clear(f)
	return dst, nil
}

// CreateCounter creates a monotonic counter (owner-authorized) and returns
// its id.
func (c *Client) CreateCounter(ownerAuth Digest) (uint32, error) {
	out, err := c.runAuth1(OrdCreateCounter, nil, ownerAuth)
	if err != nil {
		return 0, err
	}
	r := &rdr{b: out}
	id, err := r.u32()
	return id, err
}

// IncrementCounter bumps a monotonic counter and returns the new value.
func (c *Client) IncrementCounter(id uint32) (uint32, error) {
	w := c.params()
	w.u32(id)
	out, err := c.run(OrdIncrementCounter, w.b)
	if err != nil {
		return 0, err
	}
	r := &rdr{b: out}
	return r.u32()
}

// ReadCounter returns a monotonic counter's current value.
func (c *Client) ReadCounter(id uint32) (uint32, error) {
	w := c.params()
	w.u32(id)
	out, err := c.run(OrdReadCounter, w.b)
	if err != nil {
		return 0, err
	}
	r := &rdr{b: out}
	return r.u32()
}

// Startup issues TPM_Startup(ST_CLEAR), the BIOS's first command after a
// platform reset.
func (c *Client) Startup() error {
	_, err := c.run(OrdStartup, nil)
	return err
}
