package puzzle

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzSolutionToken fuzzes the solution-token decoder, where every
// verification starts. It must accept exactly what the copying reference
// decoder accepts, with the same value. A decoded token must re-encode,
// decode back to the same value and re-encode to the same text; and
// neither a hashcash nor a balloon verifier may panic on it or accept a
// challenge the test's issuers did not produce. The decoded nonce is also
// presented on every issued challenge to a verifier without a replay
// cache (a redeemed seed would stop it at the replay probe, before the
// work check), which must accept it exactly when the test-side reference
// predicate refMeets does: the balloon shell, then the target.
func FuzzSolutionToken(f *testing.F) {
	at := time.Date(2022, 3, 21, 12, 0, 0, 0, time.UTC)
	clock := fixedNow(at)
	balloon, err := NewBalloon(0, 0)
	if err != nil {
		f.Fatal(err)
	}
	// The fuzzing engine runs this set-up in every worker process, so
	// issuance must be deterministic for each worker's issued set to hold
	// the seed corpus's challenges.
	rng := seededRand{rand.New(rand.NewPCG(2022, 3))}
	issued := make(map[[TagSize]byte]Challenge)
	var verifiers []*Verifier
	reusable := make(map[BackendID]*Verifier)
	var seedTokens [][]byte
	for _, b := range []Backend{Hashcash(), balloon} {
		iss, err := NewIssuer(testKey, WithIssuerBackend(b), WithIssuerNow(clock), WithIssuerRand(rng))
		if err != nil {
			f.Fatal(err)
		}
		ver, err := NewVerifier(testKey, WithVerifierBackend(b), WithVerifierNow(clock),
			WithReplayCache(NewReplayCache(64, clock)))
		if err != nil {
			f.Fatal(err)
		}
		verifiers = append(verifiers, ver)
		if reusable[b.ID()], err = NewVerifier(testKey, WithVerifierBackend(b), WithVerifierNow(clock)); err != nil {
			f.Fatal(err)
		}

		ch, err := iss.Issue("192.0.2.1", 2)
		if err != nil {
			f.Fatal(err)
		}
		issued[ch.Tag] = ch
		sol, _, err := NewSolver().Solve(context.Background(), ch)
		if err != nil {
			f.Fatal(err)
		}
		tok, err := sol.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		wrong, err := withWrongNonce(sol).MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tok)
		f.Add(wrong)
		if b.ID() == BackendBalloon {
			// A nonce that clears the shell but misses the target: only
			// the balloon evaluation after the shell rejects it.
			shellOnly := Solution{Challenge: ch}
			for !refPassesShell(ch, shellOnly.Nonce) || refMeets(ch, shellOnly.Nonce) {
				shellOnly.Nonce++
			}
			text, err := shellOnly.MarshalText()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(text)
		}
		seedTokens = append(seedTokens, tok)
		dot := bytes.LastIndexByte(tok, '.')
		for _, cut := range []int{len(tok) - 1, dot + 1, dot, dot - 1, len(tok) / 2, 11, 1} {
			f.Add(tok[:cut])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("."))
	// Nonce spellings strconv.ParseUint(…, 16, 64) accepts (zero padding
	// past 16 digits, upper case) and rejects (empty, prefixes, digit
	// separators); a challenge part longer than any challenge; and a valid
	// token broken by newlines, which base64 skips, past that length.
	tok := bytes.Clone(seedTokens[0])
	cht := tok[:bytes.LastIndexByte(tok, '.')+1]
	for _, nonce := range []string{"00000000000000001", "ABCDEF", "", "0x1", "+1", "_1", "1_0"} {
		f.Add(append(bytes.Clone(cht), nonce...))
	}
	f.Add(append(bytes.Repeat([]byte("A"), 4*maxBinarySize/3+8), ".0"...))
	var broken []byte
	for _, c := range cht[:len(cht)-1] {
		broken = append(broken, c, '\r', '\n', '\r', '\n')
	}
	f.Add(append(broken, tok[len(cht)-1:]...))
	// A solution in the retired backend-less layout must not decode.
	var legacy Solution
	if legacy.UnmarshalText([]byte(legacyHashcashToken)) == nil {
		f.Fatal("legacy hashcash token decoded")
	}
	f.Add([]byte(legacyHashcashToken))
	// Version byte 1 in the one layout decodes, and every verifier
	// refuses it before the HMAC; backend byte 0 does not decode.
	raw, err := base64.RawURLEncoding.DecodeString(string(cht[:len(cht)-1]))
	if err != nil {
		f.Fatal(err)
	}
	raw[len(magic)] = 1
	v1 := []byte(base64.RawURLEncoding.EncodeToString(raw) + ".0")
	var v1Sol Solution
	if err := v1Sol.UnmarshalText(v1); err != nil {
		f.Fatalf("version-1 token does not decode: %v", err)
	}
	for _, ver := range verifiers {
		if err := ver.VerifyAt(&v1Sol, "", at); !errors.Is(err, ErrBadVersion) {
			f.Fatalf("%s verifier on version byte 1: err = %v, want ErrBadVersion",
				ver.Backend().Name(), err)
		}
	}
	f.Add(v1)
	raw[len(magic)], raw[len(magic)+1] = Version2, 0
	zero := []byte(base64.RawURLEncoding.EncodeToString(raw) + ".0")
	if v1Sol.UnmarshalText(zero) == nil {
		f.Fatal("backend byte 0 decoded")
	}
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		var sol Solution
		err := sol.UnmarshalText(data)
		ref, refErr := refUnmarshalSolution(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder and reference disagree on %q: %v vs %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		assertChallengeEqual(t, ref.Challenge, sol.Challenge)
		if ref.Nonce != sol.Nonce {
			t.Fatalf("nonce of %q: got %#x, reference %#x", data, sol.Nonce, ref.Nonce)
		}
		text, err := sol.MarshalText()
		if err != nil {
			t.Fatalf("decoded token does not re-encode: %v", err)
		}
		var again Solution
		if err := again.UnmarshalText(text); err != nil {
			t.Fatalf("re-encoded token %q does not decode: %v", text, err)
		}
		assertChallengeEqual(t, sol.Challenge, again.Challenge)
		if again.Nonce != sol.Nonce {
			t.Fatalf("nonce round trip: got %#x, want %#x", again.Nonce, sol.Nonce)
		}
		if text2, err := again.MarshalText(); err != nil || !bytes.Equal(text2, text) {
			t.Fatalf("re-encoding is unstable: %q then %q (%v)", text, text2, err)
		}

		for _, ver := range verifiers {
			if ver.VerifyAt(&sol, "", at) != nil {
				continue
			}
			want, ok := issued[sol.Challenge.Tag]
			if !ok {
				t.Fatalf("%s verifier accepted a challenge no issuer produced: %v",
					ver.Backend().Name(), sol.Challenge)
			}
			assertChallengeEqual(t, want, sol.Challenge)
		}
		for _, ch := range issued {
			probe := Solution{Challenge: ch, Nonce: sol.Nonce}
			err := reusable[ch.Backend].VerifyAt(&probe, "", at)
			if want := refMeets(ch, sol.Nonce); (err == nil) != want {
				t.Fatalf("%s nonce %#x: verifier says %v, reference predicate says %v",
					ch.Backend, sol.Nonce, err, want)
			}
		}
	})
}

// refUnmarshalSolution is a copying solution-token decoder written
// independently of the codec: the differential reference for
// FuzzSolutionToken. It reads the one wire layout field by field:
//
//	"AIPoW/2\x00" version backend space(4) rounds(4) seed(16)
//	issued(8) ttl(8) difficulty(2) bindlen(2) binding tag(32)
func refUnmarshalSolution(text []byte) (Solution, error) {
	var s Solution
	str := string(text)
	dot := strings.LastIndexByte(str, '.')
	if dot < 0 {
		return s, errors.New("missing nonce separator")
	}
	raw, err := base64.RawURLEncoding.DecodeString(str[:dot])
	if err != nil {
		return s, err
	}
	const head = 8 + 1 + 1 + 4 + 4 + 16 + 8 + 8 + 2 + 2
	if len(raw) < head+32 || string(raw[:8]) != "AIPoW/2\x00" {
		return s, errors.New("bad header")
	}
	u := func(b []byte) uint64 {
		var v uint64
		for _, c := range b {
			v = v<<8 | uint64(c)
		}
		return v
	}
	bindLen := int(u(raw[head-2 : head]))
	if raw[9] == 0 || bindLen > 255 || len(raw) != head+bindLen+32 {
		return s, errors.New("bad backend or length")
	}
	c := &s.Challenge
	c.Version, c.Backend = raw[8], BackendID(raw[9])
	c.Space, c.Rounds = uint32(u(raw[10:14])), uint32(u(raw[14:18]))
	copy(c.Seed[:], raw[18:34])
	c.IssuedAt = time.Unix(0, int64(u(raw[34:42]))).UTC()
	c.TTL = time.Duration(u(raw[42:50]))
	c.Difficulty = int(u(raw[50:52]))
	c.Binding = string(raw[head : head+bindLen])
	copy(c.Tag[:], raw[head+bindLen:])
	s.Nonce, err = strconv.ParseUint(str[dot+1:], 16, 64)
	return s, err
}
