package sshauth

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/palcrypto"
	"flicker/internal/tpm"
)

// PasswdEntry is one /etc/passwd line's crypt data.
type PasswdEntry struct {
	Salt   string
	Stored string // full "$1$salt$hash"
}

// Server is the modified sshd: it owns the password file, stores sdata
// between sessions, and drives the two Flicker sessions.
type Server struct {
	P   *core.Platform
	TQD *attest.Daemon

	mu     sync.Mutex
	passwd map[string]PasswdEntry
	kpal   *palcrypto.RSAPublicKey
	sdata  []byte
	nonceC uint64
}

// NewServer wraps a platform as an SSH server.
func NewServer(p *core.Platform, tqd *attest.Daemon) *Server {
	return &Server{P: p, TQD: tqd, passwd: make(map[string]PasswdEntry)}
}

// AddUser writes a user's md5crypt entry into the password file (run by the
// administrator out of band; the cleartext here never touches Flicker).
func (s *Server) AddUser(user, password, salt string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.passwd[user] = PasswdEntry{Salt: salt, Stored: palcrypto.MD5Crypt(password, salt)}
}

// SetupResult is what the client needs to trust K_PAL.
type SetupResult struct {
	KPAL        *palcrypto.RSAPublicKey
	Output      []byte // raw PAL output (pub || sdata), needed for verification
	SLBBase     uint32
	Attestation *attest.Attestation
}

// Setup runs the first Flicker session (Figure 9a) for a client challenge
// nonce and returns the public key plus the attestation.
func (s *Server) Setup(clientNonce tpm.Digest) (*SetupResult, error) {
	res, err := s.P.RunSession(NewSSHPAL(), core.SessionOptions{
		Input:    EncodeSetup(),
		Nonce:    &clientNonce,
		TwoStage: true,
	})
	if err != nil {
		return nil, err
	}
	if res.PALError != nil {
		return nil, fmt.Errorf("sshauth: setup PAL: %w", res.PALError)
	}
	pub, sdata, err := DecodeSetupOutput(res.Outputs)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.kpal = pub
	s.sdata = sdata
	s.mu.Unlock()
	att, err := s.TQD.Quote(clientNonce)
	if err != nil {
		return nil, err
	}
	return &SetupResult{KPAL: pub, Output: res.Outputs, SLBBase: res.SLBBase, Attestation: att}, nil
}

// FreshNonce issues the server's login nonce (Figure 7: "Server -> Client:
// nonce").
func (s *Server) FreshNonce() tpm.Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nonceC++
	return palcrypto.SHA1Sum([]byte(fmt.Sprintf("sshd-nonce-%d", s.nonceC)))
}

// ErrLoginFailed is the uniform login failure (no username/password oracle).
var ErrLoginFailed = errors.New("sshauth: permission denied")

// Login runs the second Flicker session (Figure 9b) for a user and the
// client's ciphertext, and compares the PAL's hash output against the
// password file.
func (s *Server) Login(user string, ciphertext []byte, nonce tpm.Digest) error {
	s.mu.Lock()
	entry, ok := s.passwd[user]
	sdata := s.sdata
	s.mu.Unlock()
	if !ok {
		return ErrLoginFailed
	}
	if sdata == nil {
		return errors.New("sshauth: server not set up")
	}
	res, err := s.P.RunSession(NewSSHPAL(), core.SessionOptions{
		Input: EncodeLogin(&LoginRequest{
			SData:      sdata,
			Ciphertext: ciphertext,
			Salt:       entry.Salt,
			Nonce:      nonce,
		}),
		TwoStage: true,
	})
	if err != nil {
		return err
	}
	if res.PALError != nil {
		// Nonce mismatch, decryption failure, etc. — login denied.
		return ErrLoginFailed
	}
	// "if (hash = hashed passwd) then allow login".
	if !palcrypto.ConstantTimeEqual(res.Outputs, []byte(entry.Stored)) {
		return ErrLoginFailed
	}
	return nil
}

// Client is the modified OpenSSH client with the flicker-password method.
type Client struct {
	CAPub *palcrypto.RSAPublicKey
	rng   *palcrypto.PRNG
	kpal  *palcrypto.RSAPublicKey
	ctr   uint64
}

// NewClient creates a client trusting the given Privacy CA.
func NewClient(caPub *palcrypto.RSAPublicKey, seed []byte) *Client {
	return &Client{CAPub: caPub, rng: palcrypto.NewPRNG(append([]byte("ssh-client|"), seed...))}
}

// TrustSetup verifies the first session's attestation and, on success,
// pins K_PAL: "by verifying the attestation from the first Flicker
// session, the client is convinced that the correct PAL executed, that the
// legitimate PAL created a fresh keypair, and that the SLB Core erased all
// secrets before returning control to the untrusted OS."
func (c *Client) TrustSetup(sr *SetupResult, myNonce tpm.Digest) error {
	im, err := core.BuildImage(NewSSHPAL(), true)
	if err != nil {
		return err
	}
	if err := im.Patch(sr.SLBBase); err != nil {
		return err
	}
	if err := attest.VerifySession(c.CAPub, sr.Attestation, myNonce, im, EncodeSetup(), sr.Output); err != nil {
		return fmt.Errorf("sshauth: setup attestation: %w", err)
	}
	pub, _, err := DecodeSetupOutput(sr.Output)
	if err != nil {
		return err
	}
	c.kpal = pub
	return nil
}

// FreshNonce issues the client's attestation challenge nonce.
func (c *Client) FreshNonce() tpm.Digest {
	c.ctr++
	return palcrypto.SHA1Sum([]byte(fmt.Sprintf("ssh-client-nonce-%d", c.ctr)))
}

// Encrypt produces the login ciphertext under the pinned K_PAL.
func (c *Client) Encrypt(password string, serverNonce tpm.Digest) ([]byte, error) {
	if c.kpal == nil {
		return nil, errors.New("sshauth: client has not verified a setup attestation")
	}
	if strings.ContainsRune(password, 0) {
		return nil, errors.New("sshauth: NUL in password")
	}
	return EncryptPassword(c.rng, c.kpal, password, serverNonce)
}
