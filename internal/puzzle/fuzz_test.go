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
// challenge the test's issuers did not produce.
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
	// Version bytes that disagree with the magic: v1 magic with version 2
	// and v2 magic with version 1 must still round-trip.
	for _, raw := range [][]byte{
		append([]byte(magic+"\x02"), make([]byte, binaryFixedSize-len(magic)-1+TagSize)...),
		append([]byte(magic2+"\x01\x02"), make([]byte, binaryFixedSizeV2-len(magic2)-2+TagSize)...),
	} {
		f.Add([]byte(base64.RawURLEncoding.EncodeToString(raw) + ".0"))
	}

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
	})
}

// refUnmarshalSolution is the copying solution-token decoder the codec
// had before decoding went allocation-free: the differential reference
// for FuzzSolutionToken.
func refUnmarshalSolution(text []byte) (Solution, error) {
	var s Solution
	str := string(text)
	dot := strings.LastIndexByte(str, '.')
	if dot < 0 {
		return s, errors.New("missing nonce separator")
	}
	raw := make([]byte, base64.RawURLEncoding.DecodedLen(dot))
	n, err := base64.RawURLEncoding.Decode(raw, []byte(str[:dot]))
	if err != nil {
		return s, err
	}
	if err := s.Challenge.UnmarshalBinary(raw[:n]); err != nil {
		return s, err
	}
	s.Nonce, err = strconv.ParseUint(str[dot+1:], 16, 64)
	return s, err
}
