package control

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"aipow/internal/baseline"
	"aipow/internal/dataset"
	"aipow/internal/features"
	"aipow/internal/reputation"
)

// TestRateScorerBuiltIn pins the built-in `rate(saturation=…)` scorer: it
// needs no registration, and its parameters are checked.
func TestRateScorerBuiltIn(t *testing.T) {
	reg := newTestRegistry(t)
	if _, err := reg.Build(PipelineSpec{Name: "p", Scorer: "rate(saturation=5)", Policy: "policy2"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"rate", "rate(saturation=0)", "rate(saturation=5, x=1)"} {
		if _, err := reg.newScorer(bad); err == nil {
			t.Errorf("scorer %q resolved", bad)
		}
	}
}

// TestRateScorerSaturation rejects every saturation that is not finite
// and positive, through the spec path: at Inf or NaN the scorer would
// price every client at 0.
func TestRateScorerSaturation(t *testing.T) {
	reg := newTestRegistry(t)
	for _, tc := range []struct {
		saturation string
		ok         bool
	}{
		{"5", true},
		{"0.5", true},
		{"Inf", false},
		{"+Inf", false},
		{"NaN", false},
		{"0", false},
		{"-1", false},
	} {
		spec := "rate(saturation=" + tc.saturation + ")"
		_, err := reg.newScorer(spec)
		if (err == nil) != tc.ok {
			t.Errorf("scorer %q: err = %v, want ok = %v", spec, err, tc.ok)
		}
		ps := PipelineSpec{Name: "p", Scorer: "hybrid(inner=rate(saturation=5), saturation=" + tc.saturation + ")", Policy: "policy2"}
		if _, err := reg.pipelineScorer(ps); (err == nil) != tc.ok {
			t.Errorf("scorer %q: err = %v, want ok = %v", ps.Scorer, err, tc.ok)
		}
	}
}

// TestHybridScorer pins the hybrid(inner=…, saturation=…) combinator: it
// resolves its inner scorer through the registry and scores max(inner,
// rate), a redeem section wraps the inner scorer (the blend stays outside
// redemption), and the name is reserved.
func TestHybridScorer(t *testing.T) {
	reg := redeemRegistry(t)
	ps := PipelineSpec{Name: "p", Scorer: "hybrid(inner=vec, saturation=4)", Policy: "policy2"}
	s, err := reg.pipelineScorer(ps)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Schema().Names(), []string{features.AttrTotalRequests, features.AttrRequestRate}; !slices.Equal(got, want) {
		t.Fatalf("hybrid schema %v, want %v", got, want)
	}
	for _, tc := range []struct{ row, want []float64 }{
		{[]float64{3, 2}, []float64{5}}, // rate 2/4 of saturation outranks the model's 3
		{[]float64{7, 1}, []float64{7}},
	} {
		if got, err := s.ScoreVector(tc.row); err != nil || got != tc.want[0] {
			t.Errorf("score %v = %v (%v), want %v", tc.row, got, err, tc.want[0])
		}
	}

	ps.Redeem = &RedeemSpec{}
	redeemed, err := reg.pipelineScorer(ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := redeemed.(*baseline.HybridScorer); !ok {
		t.Fatalf("redeemed hybrid is %T, want the hybrid outermost", redeemed)
	}

	for _, bad := range []string{"hybrid(saturation=4)", "hybrid(inner=vec)", "hybrid(inner=nope, saturation=4)", "hybrid(inner=vec, saturation=4, x=1)"} {
		if _, err := reg.pipelineScorer(PipelineSpec{Name: "p", Scorer: bad}); err == nil {
			t.Errorf("scorer %q resolved", bad)
		}
	}
	if err := reg.RegisterScorer("hybrid", func(map[string]float64) (features.VectorScorer, error) { return nil, nil }); err == nil {
		t.Error("registered a scorer over the reserved hybrid name")
	}
}

// TestRegisterPaperComponents pins the one registration of the paper's
// components: dabr resolves to the model, feed to the store, combined to
// the store over the pipeline's tracker; registering twice is an error.
func TestRegisterPaperComponents(t *testing.T) {
	reg, err := NewRegistry(testKey)
	if err != nil {
		t.Fatal(err)
	}
	model := &reputation.Model{}
	store, err := features.NewMapStore(map[string]float64{"threat": 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterPaperComponents(model, store); err != nil {
		t.Fatal(err)
	}
	if s, err := reg.newScorer("dabr"); err != nil || s != model {
		t.Errorf("dabr = %v (%v), want the model", s, err)
	}
	if s, err := reg.newSource("feed", reg.Tracker()); err != nil || s != store {
		t.Errorf("feed = %v (%v), want the store", s, err)
	}
	if s, err := reg.newSource("combined", reg.Tracker()); err != nil {
		t.Error(err)
	} else if _, ok := s.(*features.Combined); !ok {
		t.Errorf("combined = %T, want *features.Combined", s)
	}
	if _, err := reg.newScorer("dabr(x=1)"); err == nil {
		t.Error("dabr accepted a parameter")
	}
	if err := reg.RegisterPaperComponents(model, store); err == nil {
		t.Error("second registration succeeded")
	}
}

// TestNthMatchesSort pins the quickselect behind the median against a
// full sort, for every rank of slices with and without duplicates.
func TestNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 1; n <= 40; n++ {
		for _, distinct := range []int{1, 3, 1000} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.IntN(distinct))
			}
			sorted := slices.Sorted(slices.Values(vals))
			for k := range n {
				if got := nth(slices.Clone(vals), k); got != sorted[k] {
					t.Fatalf("nth(%v, %d) = %v, want %v", vals, k, got, sorted[k])
				}
			}
		}
	}
}

// TestNewFeedStore pins the one fallback rule for clients the feed does
// not know: the per-attribute median of the feed's benign rows
// (vals[len/2], so the upper median of an even count), with malicious
// rows ignored; every feed row is indexed by IP, and a feed with no
// benign row is an error.
func TestNewFeedStore(t *testing.T) {
	row := func(ip string, malicious bool, a, b float64) dataset.Sample {
		return dataset.Sample{IP: ip, Malicious: malicious, Attrs: map[string]float64{"a": a, "b": b}}
	}
	for _, tc := range []struct {
		name     string
		feed     []dataset.Sample
		fallback map[string]float64 // nil: an error
	}{
		{"one benign row", []dataset.Sample{row("192.0.2.1", false, 3, 4)}, map[string]float64{"a": 3, "b": 4}},
		{"odd benign count", []dataset.Sample{
			row("192.0.2.1", false, 9, 1), row("192.0.2.2", false, 1, 7), row("192.0.2.3", false, 5, 3),
		}, map[string]float64{"a": 5, "b": 3}},
		{"even benign count takes the upper median", []dataset.Sample{
			row("192.0.2.1", false, 4, 40), row("192.0.2.2", false, 1, 10),
			row("192.0.2.3", false, 3, 30), row("192.0.2.4", false, 2, 20),
		}, map[string]float64{"a": 3, "b": 30}},
		{"malicious rows ignored", []dataset.Sample{
			row("192.0.2.1", true, 100, 100), row("192.0.2.2", false, 1, 2),
			row("192.0.2.3", true, 100, 100), row("192.0.2.4", false, 3, 4),
			row("192.0.2.5", false, 2, 3),
		}, map[string]float64{"a": 2, "b": 3}},
		{"no benign row", []dataset.Sample{row("192.0.2.1", true, 1, 1)}, nil},
		{"empty feed", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewFeedStore(tc.feed)
			if tc.fallback == nil {
				if err == nil {
					t.Fatal("built a store without a benign fallback")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := store.Attributes("10.0.0.1", time.Time{}); !maps.Equal(got, tc.fallback) {
				t.Errorf("fallback = %v, want %v", got, tc.fallback)
			}
			if store.Len() != len(tc.feed) {
				t.Errorf("store indexes %d IPs, want %d", store.Len(), len(tc.feed))
			}
			for _, s := range tc.feed {
				if got := store.Attributes(s.IP, time.Time{}); !maps.Equal(got, s.Attrs) {
					t.Errorf("%s = %v, want its feed row %v", s.IP, got, s.Attrs)
				}
			}
		})
	}
}
