package cluster

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"aipow/internal/features"
)

func testFrame() *Frame {
	return &Frame{
		Origins: []OriginSection{
			{
				Origin:       "node0",
				Counters:     map[string]float64{"issued": 120, "verified": 80, "rejected": 3},
				DiffIssued:   []uint64{0, 0, 0, 0, 10, 25},
				DiffVerified: []uint64{0, 0, 0, 0, 8, 20},
				Rows: []features.EvidenceRow{
					{IP: "198.51.100.9", Total: 6, Failed: 1, SolveCredit: 41.5,
						CreditAt: time.Date(2022, 3, 21, 0, 0, 6, 0, time.UTC)},
					{IP: "203.0.113.7", Total: 2, Failed: 0, SolveCredit: 12},
				},
			},
			{
				Origin:   "node2",
				Counters: map[string]float64{"issued": 55},
			},
		},
		Buckets: []FilterBucket{
			{Epoch: 41_385_600, Span: int64(40 * time.Second), Words: []uint64{1, 0, 1 << 63, 42}},
		},
	}
}

func framesEqual(t *testing.T, a, b *Frame) {
	t.Helper()
	if len(a.Origins) != len(b.Origins) || len(a.Buckets) != len(b.Buckets) {
		t.Fatalf("shape mismatch: %d/%d origins, %d/%d buckets",
			len(a.Origins), len(b.Origins), len(a.Buckets), len(b.Buckets))
	}
	for i := range a.Origins {
		x, y := &a.Origins[i], &b.Origins[i]
		if x.Origin != y.Origin || len(x.Counters) != len(y.Counters) || len(x.Rows) != len(y.Rows) {
			t.Fatalf("origin %d mismatch: %+v vs %+v", i, x, y)
		}
		for k, v := range x.Counters {
			if y.Counters[k] != v {
				t.Fatalf("origin %d counter %q: %v vs %v", i, k, v, y.Counters[k])
			}
		}
		for d, c := range x.DiffIssued {
			if c != 0 && (d >= len(y.DiffIssued) || y.DiffIssued[d] != c) {
				t.Fatalf("origin %d issued[%d] lost", i, d)
			}
		}
		for j := range x.Rows {
			if !rowsEqual(x.Rows[j], y.Rows[j]) || x.Rows[j].IP != y.Rows[j].IP {
				t.Fatalf("origin %d row %d: %+v vs %+v", i, j, x.Rows[j], y.Rows[j])
			}
		}
	}
	for i := range a.Buckets {
		x, y := &a.Buckets[i], &b.Buckets[i]
		if x.Epoch != y.Epoch || x.Span != y.Span || len(x.Words) != len(y.Words) {
			t.Fatalf("bucket %d header mismatch", i)
		}
		for w := range x.Words {
			if x.Words[w] != y.Words[w] {
				t.Fatalf("bucket %d word %d mismatch", i, w)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame()
	data, err := EncodeFrame(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	framesEqual(t, f, got)
}

func TestFrameSignature(t *testing.T) {
	key := []byte("frame-signing-key-0123456789abcd")
	f := testFrame()
	signed, err := EncodeFrame(f, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(signed, key); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	// Signed frames decode unkeyed too (signature simply unchecked).
	if _, err := DecodeFrame(signed, nil); err != nil {
		t.Fatalf("signed frame failed unkeyed decode: %v", err)
	}
	// Unsigned frames fail a keyed decode: fail closed.
	unsigned, err := EncodeFrame(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(unsigned, key); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unsigned frame passed keyed decode: %v", err)
	}
	// Any payload mutation breaks the signature.
	for _, pos := range []int{len(frameMagic) + 32, len(signed) / 2, len(signed) - 1} {
		tampered := bytes.Clone(signed)
		tampered[pos] ^= 0x40
		if _, err := DecodeFrame(tampered, key); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("tampered byte %d passed keyed decode", pos)
		}
	}
	// Wrong key fails.
	other := []byte("other-signing-key-0123456789abcd")
	if _, err := DecodeFrame(signed, other); !errors.Is(err, ErrBadFrame) {
		t.Fatal("wrong key accepted")
	}
}

func TestDecodeFrameFailsClosed(t *testing.T) {
	f := testFrame()
	data, err := EncodeFrame(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation errors — no partial frames.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeFrame(data[:n], nil); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Trailing garbage errors.
	if _, err := DecodeFrame(append(bytes.Clone(data), 0xFF), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatal("trailing byte accepted")
	}
	// Bad magic errors.
	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, err := DecodeFrame(bad, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatal("bad magic accepted")
	}
	// A hostile row count larger than the input fails before allocating.
	if _, err := DecodeFrame([]byte("AIPoWX1\x00"), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatal("bare magic accepted")
	}
}

func FuzzDecodeFrame(f *testing.F) {
	key := []byte("frame-signing-key-0123456789abcd")
	delta := testFrame()
	delta.Delta = true
	var signed [][]byte
	for _, fr := range []*Frame{testFrame(), delta} {
		valid, err := EncodeFrame(fr, nil)
		if err != nil {
			f.Fatal(err)
		}
		sig, err := EncodeFrame(fr, key)
		if err != nil {
			f.Fatal(err)
		}
		if got, err := DecodeFrame(valid, nil); err != nil || got.Delta != fr.Delta {
			f.Fatalf("seed decodes as Delta=%v (%v), want %v", got != nil && got.Delta, err, fr.Delta)
		}
		signed = append(signed, sig)
		f.Add(valid)
		f.Add(sig)
		f.Add(valid[:len(valid)/2])
	}
	f.Add([]byte("AIPoWX1\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and must fail closed or produce a bounded frame.
		fr, err := DecodeFrame(data, nil)
		if err == nil {
			if len(fr.Origins) > maxWireOrigins || len(fr.Buckets) > maxWireBuckets {
				t.Fatalf("decoded frame exceeds bounds: %d origins, %d buckets",
					len(fr.Origins), len(fr.Buckets))
			}
			// A successful decode must re-encode, as the same frame kind.
			buf, err := EncodeFrame(fr, nil)
			if err != nil {
				t.Fatalf("decoded frame failed re-encode: %v", err)
			}
			again, err := DecodeFrame(buf, nil)
			if err != nil {
				t.Fatalf("re-encoded frame failed decode: %v", err)
			}
			if again.Delta != fr.Delta {
				t.Fatalf("re-encode flipped Delta %v → %v", fr.Delta, again.Delta)
			}
		}
		// Keyed decodes accept only frames we signed: anything the fuzzer
		// mutated must fail.
		if fr2, err := DecodeFrame(data, key); err == nil && !slices.ContainsFunc(signed, func(s []byte) bool { return bytes.Equal(data, s) }) {
			t.Fatalf("forged frame passed signature check: %+v", fr2)
		}
	})
}
