package ca

import (
	"errors"
	"fmt"
	"sync"

	"flicker/internal/core"
	"flicker/internal/palcrypto"
)

// Authority is the host-side CA service: it drives the PAL sessions, stores
// the sealed database between them, and maintains the revocation list ("any
// certificates incorrectly created can be revoked... revoking a CA's public
// key, as would be necessary if the private key were compromised, is a more
// heavyweight proposition").
type Authority struct {
	P      *core.Platform
	policy *Policy

	mu       sync.Mutex
	pub      *palcrypto.RSAPublicKey
	sealedDB []byte
	revoked  map[uint64]bool
}

// NewAuthority wraps a platform as a CA with the given issuance policy.
func NewAuthority(p *core.Platform, policy *Policy) *Authority {
	return &Authority{P: p, policy: policy, revoked: make(map[uint64]bool)}
}

// Init runs the keygen PAL session; the public key becomes available and
// the private key exists only in sealed storage.
func (a *Authority) Init() error {
	res, err := a.P.RunSession(NewCAPAL(a.policy), core.SessionOptions{
		Input:    EncodeKeygen(),
		TwoStage: true,
	})
	if err != nil {
		return err
	}
	if res.PALError != nil {
		return fmt.Errorf("ca: keygen PAL: %w", res.PALError)
	}
	pub, sealedDB, err := DecodeKeygenOutput(res.Outputs)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.pub = pub
	a.sealedDB = sealedDB
	a.mu.Unlock()
	return nil
}

// PublicKey returns the CA verification key ("The public key is made
// generally available").
func (a *Authority) PublicKey() *palcrypto.RSAPublicKey {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pub
}

// ErrPolicyRejected is returned when the PAL's policy refuses a CSR.
var ErrPolicyRejected = errors.New("ca: certificate request rejected by policy")

// Sign runs the signing PAL session for a CSR.
func (a *Authority) Sign(csr *CSR) (*Certificate, error) {
	a.mu.Lock()
	sealedDB := a.sealedDB
	a.mu.Unlock()
	if sealedDB == nil {
		return nil, errors.New("ca: authority not initialized")
	}
	res, err := a.P.RunSession(NewCAPAL(a.policy), core.SessionOptions{
		Input:    EncodeSign(sealedDB, csr),
		TwoStage: true,
	})
	if err != nil {
		return nil, err
	}
	if res.PALError != nil {
		if IsPolicyError(res.PALError) {
			return nil, ErrPolicyRejected
		}
		return nil, fmt.Errorf("ca: sign PAL: %w", res.PALError)
	}
	cert, newSealed, err := DecodeSignOutput(res.Outputs)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.sealedDB = newSealed
	a.mu.Unlock()
	return cert, nil
}

// IsPolicyError reports whether a PAL error is a policy rejection.
func IsPolicyError(err error) bool {
	return err != nil && contains(err.Error(), "policy rejects")
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Revoke marks a serial as revoked.
func (a *Authority) Revoke(serial uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.revoked[serial] = true
}

// Revoked reports whether a serial has been revoked.
func (a *Authority) Revoked(serial uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.revoked[serial]
}

// Validate checks a certificate's signature and revocation status against
// this authority.
func (a *Authority) Validate(cert *Certificate) error {
	pub := a.PublicKey()
	if pub == nil {
		return errors.New("ca: authority not initialized")
	}
	if err := VerifyCertificate(pub, cert); err != nil {
		return err
	}
	if a.Revoked(cert.Serial) {
		return fmt.Errorf("ca: certificate %d is revoked", cert.Serial)
	}
	return nil
}
