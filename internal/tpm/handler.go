package tpm

import (
	"encoding/binary"
	"strconv"

	"flicker/internal/hw/tis"
	"flicker/internal/metrics"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
)

// dispatch executes one parsed command and records its per-ordinal metrics:
// a count labeled by result code, and the command's simulated latency (the
// clock time its charges advanced — the quantity Section 7's tables report).
// Callers hold t.mu.
func (t *TPM) dispatch(loc tis.Locality, tag uint16, ord uint32, body []byte) ([]byte, uint32) {
	start := t.clock.Now()
	rbody, rc := t.dispatchOrdinal(loc, tag, ord, body)
	// rbody is a copy of, never a view into, the envelope scratch, so the
	// scrub can run before the response is framed.
	t.scratch.scrub()
	name := OrdinalName(ord)
	if rc == RCSuccess {
		c, ok := t.okCounters[ord]
		if !ok {
			c = t.metCommands.With(name, "0").Cell()
			t.okCounters[ord] = c
		}
		c.Inc()
	} else {
		//flickervet:allow metrichandle(non-success result codes are once-per-incident fault paths)
		t.metCommands.With(name, strconv.FormatUint(uint64(rc), 10)).Inc()
	}
	h, ok := t.latHists[ord]
	if !ok {
		h = t.metLatency.With(name).Cell()
		t.latHists[ord] = h
	}
	h.ObserveDurationExemplar(t.clock.Now()-start, t.traceTag.Get())
	if rc == RCBadLocality {
		t.events.Record(metrics.EventLocalityFault,
			"tpm: "+name+" refused at locality "+strconv.Itoa(int(loc)))
	}
	return rbody, rc
}

// dispatchOrdinal is the ordinal switch behind dispatch.
func (t *TPM) dispatchOrdinal(loc tis.Locality, tag uint16, ord uint32, body []byte) ([]byte, uint32) {
	if t.needStartup && ord != OrdStartup {
		return nil, RCInvalidPostInit
	}
	switch ord {
	case OrdStartup:
		return t.cmdStartup()
	case OrdOIAP:
		return t.cmdOIAP()
	case OrdOSAP:
		return t.cmdOSAP(body)
	case OrdExtend:
		return t.cmdExtend(body)
	case OrdPCRRead:
		return t.cmdPCRRead(body)
	case OrdPCRReset:
		return t.cmdPCRReset(loc, body)
	case OrdGetRandom:
		return t.cmdGetRandom(body)
	case OrdGetCapability:
		return t.cmdGetCapability(body)
	case OrdQuote:
		return t.cmdQuote(tag, body)
	case OrdSeal:
		return t.cmdSeal(tag, body)
	case OrdUnseal:
		return t.cmdUnseal(tag, body)
	case OrdMakeIdentity:
		return t.cmdMakeIdentity(tag, body)
	case OrdLoadKey2:
		return t.cmdLoadKey2Blob(body)
	case OrdCreateWrapKey:
		return t.cmdCreateWrapKey(tag, body)
	case OrdSign:
		return t.cmdSign(tag, body)
	case OrdFlushSpecific:
		return t.cmdFlushSpecific(body)
	case OrdNVDefineSpace:
		return t.cmdNVDefineSpace(tag, body)
	case OrdNVWriteValue:
		return t.cmdNVWriteValue(body)
	case OrdNVReadValue:
		return t.cmdNVReadValue(body)
	case OrdCreateCounter:
		return t.cmdCreateCounter(tag, body)
	case OrdIncrementCounter:
		return t.cmdIncrementCounter(body)
	case OrdReadCounter:
		return t.cmdReadCounter(body)
	case OrdHashStart:
		return t.cmdHashStart(loc)
	case OrdHashData:
		return t.cmdHashData(loc, body)
	case OrdHashEnd:
		return t.cmdHashEnd(loc)
	case OrdHashDigest:
		return t.cmdHashDigest(loc, body)
	default:
		return nil, RCBadOrdinal
	}
}

func (t *TPM) cmdOIAP() ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMOIAPSession, Label: "tpm.oiap"})
	h, ne := t.oiapLocked()
	w := t.respBuf()
	w.u32(h)
	w.raw(ne[:])
	return w.b, RCSuccess
}

func (t *TPM) cmdOSAP(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMOIAPSession, Label: "tpm.osap"})
	r := &rdr{b: body}
	et, err := r.u16()
	if err != nil {
		return nil, RCBadParameter
	}
	ev, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	no, err := r.raw(DigestSize)
	if err != nil {
		return nil, RCBadParameter
	}
	var nonceOddOSAP Digest
	copy(nonceOddOSAP[:], no)
	h, ne, neOSAP, rc := t.osapLocked(et, ev, nonceOddOSAP)
	if rc != RCSuccess {
		return nil, rc
	}
	w := t.respBuf()
	w.u32(h)
	w.raw(ne[:])
	w.raw(neOSAP[:])
	return w.b, RCSuccess
}

func (t *TPM) cmdExtend(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMExtend, Label: "tpm.extend"})
	r := &rdr{b: body}
	idx, err := r.u32()
	if err != nil || idx >= NumPCRs {
		return nil, RCBadIndex
	}
	db, err := r.raw(DigestSize)
	if err != nil {
		return nil, RCBadParameter
	}
	var m Digest
	copy(m[:], db)
	t.extendLocked(int(idx), m)
	return t.pcrs[idx][:], RCSuccess
}

func (t *TPM) cmdPCRRead(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMPCRRead, Label: "tpm.pcrread"})
	r := &rdr{b: body}
	idx, err := r.u32()
	if err != nil || idx >= NumPCRs {
		return nil, RCBadIndex
	}
	return t.pcrs[idx][:], RCSuccess
}

// cmdPCRReset implements the software TPM_PCR_Reset. Per the v1.2 locality
// matrix, software may reset PCRs 20-22 from locality 2 or higher. PCR 17
// is *never* software-resettable: "Only a hardware command from the CPU can
// reset PCR 17" (paper Section 2.3). That restriction is the root of
// Flicker's attestation guarantee.
func (t *TPM) cmdPCRReset(loc tis.Locality, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMExtend, Label: "tpm.pcrreset"})
	r := &rdr{b: body}
	sel, err := parsePCRSelection(r)
	if err != nil {
		return nil, RCBadParameter
	}
	idxs := sel.Indices()
	if len(idxs) == 0 {
		return nil, RCBadParameter
	}
	for _, i := range idxs {
		if i < 20 || i > 22 {
			return nil, RCBadIndex
		}
	}
	if loc < tis.Locality2 {
		return nil, RCBadLocality
	}
	for _, i := range idxs {
		t.pcrs[i] = Digest{}
	}
	return nil, RCSuccess
}

// maxRandomBytes is the most TPM_GetRandom returns in one command.
const maxRandomBytes = 4096

func (t *TPM) cmdGetRandom(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMGetRandom, Label: "tpm.getrandom"})
	r := &rdr{b: body}
	n, err := r.u32()
	if err != nil || n > maxRandomBytes {
		return nil, RCBadParameter
	}
	if cap(t.rnd) < int(n) {
		t.rnd = make([]byte, n)
	}
	t.rnd = t.rnd[:n]
	t.rng.Read(t.rnd)
	w := t.respBuf()
	w.bytes32(t.rnd)
	return w.b, RCSuccess
}

func (t *TPM) cmdGetCapability(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMPCRRead, Label: "tpm.getcapability"})
	r := &rdr{b: body}
	area, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	w := t.respBuf()
	switch area {
	case 0: // version + PCR count
		w.raw([]byte{1, 2, 0, 0})
		w.u32(NumPCRs)
	case 1: // boot count
		w.u32(uint32(t.bootCount))
	default:
		return nil, RCBadParameter
	}
	return w.b, RCSuccess
}

// cmdQuote signs (nonce, selected PCRs) with a loaded AIK.
// Params: keyHandle(4) || externalData(20) || pcrSelection. Auth targets
// the key handle.
func (t *TPM) cmdQuote(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMQuote, Label: "tpm.quote"})
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
	ed, err := r.raw(DigestSize)
	if err != nil {
		return nil, RCBadParameter
	}
	sel, err := parsePCRSelection(r)
	if err != nil {
		return nil, RCBadParameter
	}
	key, ok := t.keys[kh]
	if !ok || !key.isAIK {
		return nil, RCBadIndex
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdQuote, params, tr, ETKeyHandle, kh)
	if rc != RCSuccess {
		return nil, rc
	}
	composite := t.compositeLocked(sel)
	var nonce Digest
	copy(nonce[:], ed)
	qi := QuoteInfo(composite, nonce)
	w := t.respBuf()
	w.raw(composite[:])
	if palcrypto.SignPKCS1SHA1To(w.field32(key.priv.Size()), key.priv, qi) != nil {
		return nil, RCFail
	}
	return appendResponseAuth(w, authKey, RCSuccess, OrdQuote, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}

// cmdSeal binds data to a future PCR state.
// Params: keyHandle(4) || digestAtRelease(20) || pcrSelection || bytes32(data).
func (t *TPM) cmdSeal(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMSeal, Label: "tpm.seal"})
	if tag != tagRQUAuth1 {
		return nil, RCAuthFail
	}
	params, tr, err := splitAuth1(body)
	if err != nil {
		return nil, RCBadParameter
	}
	r := &rdr{b: params}
	kh, err := r.u32()
	if err != nil || kh != KHSRK {
		return nil, RCBadIndex
	}
	darb, err := r.raw(DigestSize)
	if err != nil {
		return nil, RCBadParameter
	}
	sel, err := parsePCRSelection(r)
	if err != nil {
		return nil, RCBadParameter
	}
	data, err := r.bytes32()
	if err != nil {
		return nil, RCBadParameter
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdSeal, params, tr, ETKeyHandle, kh)
	if rc != RCSuccess {
		return nil, rc
	}
	w := t.respBuf()
	if rc := t.sealLocked(w, sel, Digest(darb), data); rc != RCSuccess {
		return nil, rc
	}
	return appendResponseAuth(w, authKey, RCSuccess, OrdSeal, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}

// cmdUnseal releases sealed data if the PCR binding is satisfied.
// Params: keyHandle(4) || bytes32(blob).
func (t *TPM) cmdUnseal(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMUnseal, Label: "tpm.unseal"})
	if tag != tagRQUAuth1 {
		return nil, RCAuthFail
	}
	params, tr, err := splitAuth1(body)
	if err != nil {
		return nil, RCBadParameter
	}
	r := &rdr{b: params}
	kh, err := r.u32()
	if err != nil || kh != KHSRK {
		return nil, RCBadIndex
	}
	blob, err := r.bytes32()
	if err != nil {
		return nil, RCBadParameter
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdUnseal, params, tr, ETKeyHandle, kh)
	if rc != RCSuccess {
		return nil, rc
	}
	data, rc := t.unsealLocked(blob)
	if rc != RCSuccess {
		return nil, rc
	}
	w := t.respBuf()
	w.bytes32(data)
	return appendResponseAuth(w, authKey, RCSuccess, OrdUnseal, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}

// cmdMakeIdentity generates a fresh AIK (owner-authorized) and returns its
// handle and public key. In the real protocol the AIK public key is then
// certified by a Privacy CA; internal/attest implements that step.
func (t *TPM) cmdMakeIdentity(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMMakeIdentity, Label: "tpm.makeidentity"})
	if tag != tagRQUAuth1 {
		return nil, RCAuthFail
	}
	params, tr, err := splitAuth1(body)
	if err != nil {
		return nil, RCBadParameter
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdMakeIdentity, params, tr, ETOwner, KHOwner)
	if rc != RCSuccess {
		return nil, rc
	}
	priv, err := palcrypto.GenerateRSAKey(t.rng, t.keyBits)
	if err != nil {
		return nil, RCFail
	}
	h := t.nextHandle
	w := t.respBuf()
	w.u32(h)
	w.bytes32(palcrypto.MarshalPublicKey(&priv.RSAPublicKey))
	if rc := t.wrapKeyLocked(w, priv, KeyUsageIdentity, Digest{}); rc != RCSuccess {
		return nil, rc
	}
	t.nextHandle++
	t.keys[h] = &loadedKey{priv: priv, isAIK: true}
	return appendResponseAuth(w, authKey, RCSuccess, OrdMakeIdentity, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}

func (t *TPM) cmdCreateCounter(tag uint16, body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMCounter, Label: "tpm.createcounter"})
	if tag != tagRQUAuth1 {
		return nil, RCAuthFail
	}
	params, tr, err := splitAuth1(body)
	if err != nil {
		return nil, RCBadParameter
	}
	authKey, nonceEven, rc := t.verifyAuthLocked(OrdCreateCounter, params, tr, ETOwner, KHOwner)
	if rc != RCSuccess {
		return nil, rc
	}
	id := t.nextCounter
	t.nextCounter++
	t.counters[id] = &counter{}
	w := t.respBuf()
	w.u32(id)
	w.u32(0)
	return appendResponseAuth(w, authKey, RCSuccess, OrdCreateCounter, nonceEven, tr.nonceOdd, tr.cont), RCSuccess
}

func (t *TPM) cmdIncrementCounter(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMCounter, Label: "tpm.inccounter"})
	r := &rdr{b: body}
	id, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	c, ok := t.counters[id]
	if !ok {
		return nil, RCBadIndex
	}
	c.value++
	w := t.respBuf()
	w.u32(c.value)
	return w.b, RCSuccess
}

func (t *TPM) cmdReadCounter(body []byte) ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMCounter, Label: "tpm.readcounter"})
	r := &rdr{b: body}
	id, err := r.u32()
	if err != nil {
		return nil, RCBadParameter
	}
	c, ok := t.counters[id]
	if !ok {
		return nil, RCBadIndex
	}
	w := t.respBuf()
	w.u32(c.value)
	return w.b, RCSuccess
}

// Locality-4 hash sequence: the CPU's SKINIT microcode resets the dynamic
// PCRs, streams the SLB through HashData, and HashEnd extends the final
// digest into PCR 17. No software locality may issue these.

func (t *TPM) cmdHashStart(loc tis.Locality) ([]byte, uint32) {
	if loc != tis.Locality4 {
		return nil, RCBadLocality
	}
	for i := FirstDynamicPCR; i <= LastDynamicPCR; i++ {
		t.pcrs[i] = Digest{}
	}
	t.events.Record(metrics.EventPCR17Reset,
		"tpm: locality-4 hash sequence reset PCRs 17-23")
	t.hashActive = true
	t.hash.Reset()
	return nil, RCSuccess
}

func (t *TPM) cmdHashData(loc tis.Locality, body []byte) ([]byte, uint32) {
	if loc != tis.Locality4 {
		return nil, RCBadLocality
	}
	if !t.hashActive {
		return nil, RCFail
	}
	// The dominant SKINIT cost: transferring the SLB over the LPC bus and
	// hashing it inside the TPM (Table 2's linear growth).
	t.charge(simtime.Charge{
		Duration: time64(len(body)) * t.profile.TPMTransferPerByte,
		Label:    "tpm.hashdata",
	})
	t.hash.Write(body)
	return nil, RCSuccess
}

func (t *TPM) cmdHashEnd(loc tis.Locality) ([]byte, uint32) {
	if loc != tis.Locality4 {
		return nil, RCBadLocality
	}
	if !t.hashActive {
		return nil, RCFail
	}
	var m Digest
	t.hash.SumInto(&m)
	t.extendLocked(17, m)
	t.hashActive = false
	return t.pcrs[17][:], RCSuccess
}

// cmdHashDigest is the single-command fast path of the locality-4 hash
// sequence, used when the CPU's measurement cache already holds the digest
// of an unchanged SLB. The body is a big-endian u32 transfer length followed
// by the 20-byte digest. It charges exactly what the equivalent HASH_DATA
// chunk stream would have (len × per-byte transfer, in one charge — the sums
// are identical, so Table 2's simulated latencies are unchanged), extends
// the digest into PCR 17 and closes the sequence. Only reachable after a
// HASH_START, so the fast path can never skip the PCR 17-23 reset.
func (t *TPM) cmdHashDigest(loc tis.Locality, body []byte) ([]byte, uint32) {
	if loc != tis.Locality4 {
		return nil, RCBadLocality
	}
	if !t.hashActive {
		return nil, RCFail
	}
	if len(body) != 4+DigestSize {
		return nil, RCBadParameter
	}
	totalLen := binary.BigEndian.Uint32(body)
	t.charge(simtime.Charge{
		Duration: time64(int(totalLen)) * t.profile.TPMTransferPerByte,
		Label:    "tpm.hashdata",
	})
	var m Digest
	copy(m[:], body[4:])
	t.extendLocked(17, m)
	t.hashActive = false
	return t.pcrs[17][:], RCSuccess
}

// cmdStartup is TPM_Startup(ST_CLEAR): the BIOS's first command after a
// platform reset, which unlocks the rest of the command set.
func (t *TPM) cmdStartup() ([]byte, uint32) {
	t.charge(simtime.Charge{Duration: t.profile.TPMPCRRead, Label: "tpm.startup"})
	if !t.needStartup {
		// A second Startup without an intervening reset is an error.
		return nil, RCBadOrdinal
	}
	t.needStartup = false
	return nil, RCSuccess
}
