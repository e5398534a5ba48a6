package puzzle

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestChallengeBinaryRoundTrip(t *testing.T) {
	iss := newTestIssuer(t)
	ch, err := iss.Issue("198.51.100.23", 9)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Challenge
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	assertChallengeEqual(t, ch, got)
}

func TestChallengeTextRoundTrip(t *testing.T) {
	iss := newTestIssuer(t)
	ch, err := iss.Issue("2001:db8::1", 3)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := ch.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(string(txt), "+/=\n ") {
		t.Fatalf("text form not header-safe: %q", txt)
	}
	var got Challenge
	if err := got.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	assertChallengeEqual(t, ch, got)
}

// Property: round-tripping preserves verifiability — a decoded challenge's
// solved nonce still verifies, for random bindings and difficulties.
func TestEncodedChallengeStillVerifiesProperty(t *testing.T) {
	iss := newTestIssuer(t)
	ver := newTestVerifier(t)
	f := func(b uint8, dRaw uint8) bool {
		binding := strings.Repeat("x", int(b%32))
		d := 1 + int(dRaw%6)
		ch, err := iss.Issue(binding, d)
		if err != nil {
			return false
		}
		txt, err := ch.MarshalText()
		if err != nil {
			return false
		}
		var decoded Challenge
		if err := decoded.UnmarshalText(txt); err != nil {
			return false
		}
		sol := Solution{Challenge: decoded}
		for n := uint64(0); ; n++ {
			if decoded.Meets(n) {
				sol.Nonce = n
				break
			}
		}
		return ver.Verify(sol, binding) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// legacyHashcashToken is a solved hashcash token in the retired
// backend-less layout (magic "AIPoW/1"), as nodes minted them before every
// backend shared one format. It no longer decodes.
const legacyHashcashToken = "QUlQb1cvMQABhq0F3Jh_gGIwoTygd5badhbeY5PGJ4AAAAAAG_COsAAABAAJMTkyLjAuMi43" +
	"g50KsxZ_qaiOsrexfPzzlTiNzbFR_ifD_SZ-EuxdpKs.9"

// pinnedIssue issues a deterministic challenge under b: a fixed clock, a
// seeded entropy source and a fixed binding and difficulty.
func pinnedIssue(t *testing.T, b Backend) Challenge {
	t.Helper()
	at := time.Date(2022, 3, 21, 12, 0, 0, 0, time.UTC)
	iss := newTestIssuer(t, WithIssuerBackend(b), WithIssuerNow(fixedNow(at)),
		WithIssuerRand(seededRand{rand.New(rand.NewPCG(1, 2))}))
	ch, err := iss.Issue("192.0.2.7", 4)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestBalloonTokenPinned pins a balloon challenge's token to the bytes
// balloon routes have always issued: hashcash joining the backend-tagged
// format left the balloon encoding unchanged.
func TestBalloonTokenPinned(t *testing.T) {
	balloon, err := NewBalloon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const want = "QUlQb1cvMgACAgAAAQAAAAAChq0F3Jh_gGIwoTygd5badhbeY5PGJ4AAAAAAG_COsAAABAAJ" +
		"MTkyLjAuMi43QJsSIFVbTkRAzGVw1O_sOAH8CjdNl2a8tD0oACv0iwE"
	ch := pinnedIssue(t, balloon)
	got, err := ch.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("balloon token changed:\n got %s\nwant %s", got, want)
	}
}

// preShellBalloonSolution is the pinned balloon challenge of
// TestBalloonTokenPinned with nonce 0x2a, as nodes minted solutions
// before the SHA-256 shell: its balloon digest meets difficulty 4, and
// those nodes accepted it, but it fails the shell.
const preShellBalloonSolution = "QUlQb1cvMgACAgAAAQAAAAAChq0F3Jh_gGIwoTygd5badhbeY5PGJ4AAAAAAG_COsAAABAAJ" +
	"MTkyLjAuMi43QJsSIFVbTkRAzGVw1O_sOAH8CjdNl2a8tD0oACv0iwE.2a"

// A balloon solution from a client that predates the shell is a wrong
// solution on an upgraded verifier: ErrWrongSolution, the reject reason
// a nonce below the balloon target already gets.
func TestPreShellBalloonSolutionRejected(t *testing.T) {
	var sol Solution
	if err := sol.UnmarshalText([]byte(preShellBalloonSolution)); err != nil {
		t.Fatal(err)
	}
	ch := sol.Challenge
	d := ch.Digest(sol.Nonce)
	if refLeadingZeros(d[:]) < ch.Difficulty {
		t.Fatalf("balloon digest has %d leading zero bits, want ≥ %d", refLeadingZeros(d[:]), ch.Difficulty)
	}
	if refMeets(ch, sol.Nonce) || ch.Meets(sol.Nonce) {
		t.Fatal("the pinned nonce clears the shell")
	}
	balloon, err := NewBalloon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2022, 3, 21, 12, 0, 0, 0, time.UTC)
	ver := newTestVerifier(t, WithVerifierBackend(balloon), WithVerifierNow(fixedNow(at)))
	if err := ver.Verify(sol, "192.0.2.7"); !errors.Is(err, ErrWrongSolution) {
		t.Fatalf("Verify = %v, want ErrWrongSolution", err)
	}
}

// TestHashcashCanonicalLayout pins the hashcash header: the one magic,
// version 2, backend byte 1 and zero space and rounds.
func TestHashcashCanonicalLayout(t *testing.T) {
	ch := pinnedIssue(t, Hashcash())
	want := []byte("AIPoW/2\x00\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00")
	if got := ch.canonical(); !bytes.HasPrefix(got, want) {
		t.Fatalf("hashcash canonical header = %x, want %x", got[:len(want)], want)
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	iss := newTestIssuer(t)
	ch, err := iss.Issue("c", 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", raw[:10]},
		{"missing_tag_byte", raw[:len(raw)-1]},
		{"bad_magic", append([]byte("XXXXXXXX"), raw[8:]...)},
		{"trailing_garbage", append(append([]byte(nil), raw...), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var got Challenge
			if err := got.UnmarshalBinary(tt.data); err == nil {
				t.Fatal("corrupt encoding accepted")
			}
		})
	}
}

func TestUnmarshalTextRejectsGarbage(t *testing.T) {
	var ch Challenge
	if err := ch.UnmarshalText([]byte("!!!not-base64!!!")); err == nil {
		t.Fatal("invalid base64 accepted")
	}
}

func TestMarshalBinaryRejectsOversizedBinding(t *testing.T) {
	ch := Challenge{Binding: strings.Repeat("b", 300)}
	if _, err := ch.MarshalBinary(); !errors.Is(err, ErrBindingTooLong) {
		t.Fatalf("err = %v, want ErrBindingTooLong", err)
	}
}

func TestSolutionTextRoundTrip(t *testing.T) {
	iss := newTestIssuer(t)
	ch, err := iss.Issue("client-9", 5)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	txt, err := sol.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var got Solution
	if err := got.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	if got.Nonce != sol.Nonce {
		t.Fatalf("nonce = %d, want %d", got.Nonce, sol.Nonce)
	}
	assertChallengeEqual(t, sol.Challenge, got.Challenge)
}

func TestSolutionUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"no_separator", "abcdef"},
		{"bad_nonce", "QUlQb1cvMQ.zzzz-not-hex"},
		{"bad_challenge", "%%%.ff"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var s Solution
			if err := s.UnmarshalText([]byte(tt.in)); err == nil {
				t.Fatal("garbage solution accepted")
			}
		})
	}
}

func TestChallengeStringIsHumanReadable(t *testing.T) {
	ch := Challenge{Version: Version2, Backend: BackendHashcash, Difficulty: 7,
		Binding: "10.1.1.1", IssuedAt: time.Unix(0, 0).UTC(), TTL: time.Minute}
	s := ch.String()
	if !strings.Contains(s, "hashcash") || !strings.Contains(s, "d=7") ||
		!strings.Contains(s, "10.1.1.1") {
		t.Fatalf("String() = %q", s)
	}
}

func assertChallengeEqual(t *testing.T, want, got Challenge) {
	t.Helper()
	if got.Version != want.Version || got.Backend != want.Backend ||
		got.Space != want.Space || got.Rounds != want.Rounds ||
		got.Seed != want.Seed ||
		!got.IssuedAt.Equal(want.IssuedAt) || got.TTL != want.TTL ||
		got.Difficulty != want.Difficulty || got.Binding != want.Binding ||
		got.Tag != want.Tag {
		t.Fatalf("challenge mismatch:\n got %+v\nwant %+v", got, want)
	}
}
