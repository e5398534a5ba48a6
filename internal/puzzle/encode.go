package puzzle

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"strconv"
	"time"
)

// binaryFixedSize is the length of a challenge's binary encoding,
// excluding the variable-length binding and the tag.
const binaryFixedSize = len(magic) + 1 + 1 + 4 + 4 + SeedSize + 8 + 8 + 2 + 2

// MarshalBinary encodes the challenge as canonical bytes followed by the
// tag. It never fails for challenges produced by an Issuer.
func (c Challenge) MarshalBinary() ([]byte, error) {
	if len(c.Binding) > maxBindingLen {
		return nil, ErrBindingTooLong
	}
	return append(c.canonical(), c.Tag[:]...), nil
}

// UnmarshalBinary decodes a challenge previously encoded by MarshalBinary.
// It validates structure only; authenticity is the Verifier's job.
func (c *Challenge) UnmarshalBinary(data []byte) error {
	if len(data) < binaryFixedSize+TagSize {
		return fmt.Errorf("puzzle: truncated challenge (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return fmt.Errorf("puzzle: bad magic")
	}
	off := len(magic)
	c.Version = data[off]
	off++
	c.Backend = BackendID(data[off])
	off++
	if c.Backend == 0 {
		return fmt.Errorf("puzzle: zero backend ID in challenge")
	}
	c.Space = binary.BigEndian.Uint32(data[off:])
	off += 4
	c.Rounds = binary.BigEndian.Uint32(data[off:])
	off += 4
	copy(c.Seed[:], data[off:off+SeedSize])
	off += SeedSize
	c.IssuedAt = time.Unix(0, int64(binary.BigEndian.Uint64(data[off:]))).UTC()
	off += 8
	c.TTL = time.Duration(binary.BigEndian.Uint64(data[off:]))
	off += 8
	c.Difficulty = int(binary.BigEndian.Uint16(data[off:]))
	off += 2
	bindLen := int(binary.BigEndian.Uint16(data[off:]))
	off += 2
	if bindLen > maxBindingLen {
		return ErrBindingTooLong
	}
	if len(data) != binaryFixedSize+bindLen+TagSize {
		return fmt.Errorf("puzzle: challenge length %d does not match binding length %d",
			len(data), bindLen)
	}
	c.Binding = string(data[off : off+bindLen])
	off += bindLen
	copy(c.Tag[:], data[off:off+TagSize])
	return nil
}

// maxBinarySize bounds any decodable challenge's binary encoding: the
// fixed part, the longest binding and the tag.
const maxBinarySize = binaryFixedSize + maxBindingLen + TagSize

// MarshalText encodes the challenge as a single base64url token suitable
// for an HTTP header.
func (c Challenge) MarshalText() ([]byte, error) {
	return c.AppendText(nil)
}

// AppendText appends the challenge's base64url token to b, the
// encoding.TextAppender form of MarshalText. The binary encoding is built
// in stack scratch, so the only allocation is any growth of b.
func (c *Challenge) AppendText(b []byte) ([]byte, error) {
	if len(c.Binding) > maxBindingLen {
		return b, ErrBindingTooLong
	}
	var scratch [maxBinarySize]byte
	raw := append(c.appendCanonical(scratch[:0]), c.Tag[:]...)
	return base64.RawURLEncoding.AppendEncode(b, raw), nil
}

// UnmarshalText decodes a base64url challenge token.
func (c *Challenge) UnmarshalText(text []byte) error {
	var scratch [maxBinarySize]byte
	raw := scratch[:]
	if n := base64.RawURLEncoding.DecodedLen(len(text)); n > len(raw) {
		// Too long for any challenge unless the decoder skips line breaks;
		// decode on the heap so such input gets the same verdict.
		raw = make([]byte, n)
	}
	n, err := base64.RawURLEncoding.Decode(raw, text)
	if err != nil {
		return fmt.Errorf("puzzle: decode challenge token: %w", err)
	}
	return c.UnmarshalBinary(raw[:n])
}

// String renders a compact human-readable description (not the wire form).
func (c Challenge) String() string {
	return fmt.Sprintf("challenge{v%d %s d=%d binding=%q issued=%s ttl=%s}",
		c.Version, c.Backend, c.Difficulty, c.Binding,
		c.IssuedAt.Format(time.RFC3339Nano), c.TTL)
}

// MarshalText encodes a solution as "<challenge-token>.<nonce-hex>".
func (s Solution) MarshalText() ([]byte, error) {
	b, err := s.Challenge.AppendText(nil)
	if err != nil {
		return nil, err
	}
	return strconv.AppendUint(append(b, '.'), s.Nonce, 16), nil
}

// UnmarshalText decodes a solution encoded by MarshalText. It copies
// nothing from text but the challenge's binding.
func (s *Solution) UnmarshalText(text []byte) error {
	dot := bytes.LastIndexByte(text, '.')
	if dot < 0 {
		return fmt.Errorf("puzzle: solution token missing nonce separator")
	}
	if err := s.Challenge.UnmarshalText(text[:dot]); err != nil {
		return err
	}
	// The conversion does not escape: ParseUint's NumError clones its input.
	nonce, err := strconv.ParseUint(string(text[dot+1:]), 16, 64)
	if err != nil {
		return fmt.Errorf("puzzle: parse solution nonce: %w", err)
	}
	s.Nonce = nonce
	return nil
}
