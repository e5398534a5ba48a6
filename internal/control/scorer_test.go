package control

import (
	"slices"
	"testing"

	"aipow/internal/baseline"
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
