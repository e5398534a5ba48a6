package httpmw

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// HeaderToken carries a session token minted after a successful puzzle
// redemption. While the token is valid, the client skips further puzzles —
// amortizing one solve over many requests. This trades protection
// granularity for throughput and is disabled unless the middleware is
// built with WithTokenTTL.
const HeaderToken = "X-PoW-Token"

// Token errors.
var (
	// ErrTokenInvalid reports a token that fails authentication or parsing.
	ErrTokenInvalid = errors.New("httpmw: invalid session token")

	// ErrTokenExpired reports a structurally valid but stale token.
	ErrTokenExpired = errors.New("httpmw: session token expired")
)

// tokenMagic distinguishes token HMAC inputs from challenge HMAC inputs
// under the same key.
const tokenMagic = "AIPoW-token/1\x00"

// tokenSigner mints and validates bearer tokens binding (client, expiry)
// under an HMAC key. Tokens are one line, header-safe. The key length is
// validated by the middleware, which shares the framework's key-length
// discipline.
type tokenSigner struct {
	key []byte
}

// Mint creates a token for binding valid until now+ttl.
func (s *tokenSigner) Mint(binding string, ttl time.Duration, now time.Time) string {
	expiry := now.Add(ttl).UnixNano()
	payload := make([]byte, 8, 8+len(binding))
	binary.BigEndian.PutUint64(payload, uint64(expiry))
	payload = append(payload, binding...)
	tag := s.tag(payload)
	blob := append(payload, tag...)
	return base64.RawURLEncoding.EncodeToString(blob)
}

// Validate checks a token presented by binding at now.
func (s *tokenSigner) Validate(token, binding string, now time.Time) error {
	blob, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTokenInvalid, err)
	}
	if len(blob) < 8+sha256.Size {
		return fmt.Errorf("%w: truncated", ErrTokenInvalid)
	}
	payload, tag := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	if !hmac.Equal(tag, s.tag(payload)) {
		return fmt.Errorf("%w: bad signature", ErrTokenInvalid)
	}
	if got := string(payload[8:]); got != binding {
		return fmt.Errorf("%w: token bound to %q, presented by %q", ErrTokenInvalid, got, binding)
	}
	expiry := time.Unix(0, int64(binary.BigEndian.Uint64(payload[:8])))
	if now.After(expiry) {
		return fmt.Errorf("%w: at %v", ErrTokenExpired, expiry)
	}
	return nil
}

// tag computes the token HMAC.
func (s *tokenSigner) tag(payload []byte) []byte {
	mac := hmac.New(sha256.New, s.key)
	mac.Write([]byte(tokenMagic))
	mac.Write(payload)
	return mac.Sum(nil)
}
