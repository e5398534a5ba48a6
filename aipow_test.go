package aipow_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aipow"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

// trainedModel builds a reputation model from the synthetic feed and a
// store mapping one benign and one malicious IP.
func trainedModel(t *testing.T) (*aipow.ReputationModel, *aipow.MapStore, string, string) {
	t.Helper()
	cfg := aipow.DefaultDatasetConfig()
	cfg.N = 2000
	data, err := aipow.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := aipow.TrainReputationModel(aipow.DatasetToSamples(data), aipow.WithTrainSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var benIP, malIP string
	var fallback map[string]float64
	store := (*aipow.MapStore)(nil)
	for _, s := range data {
		if fallback == nil && !s.Malicious {
			fallback = s.Attrs
			st, err := aipow.NewMapStore(fallback)
			if err != nil {
				t.Fatal(err)
			}
			store = st
		}
		if store == nil {
			continue
		}
		if s.Malicious && malIP == "" {
			malIP = s.IP
			store.Put(s.IP, s.Attrs)
		}
		if !s.Malicious && benIP == "" {
			benIP = s.IP
			store.Put(s.IP, s.Attrs)
		}
		if benIP != "" && malIP != "" {
			break
		}
	}
	if benIP == "" || malIP == "" {
		t.Fatal("dataset lacked both classes")
	}
	return model, store, benIP, malIP
}

// TestPublicAPIEndToEnd exercises the whole pipeline through the facade:
// dataset → trained model → framework → challenge → solve → verify.
func TestPublicAPIEndToEnd(t *testing.T) {
	model, store, benIP, malIP := trainedModel(t)
	fw, err := aipow.New(
		aipow.WithKey(testKey),
		aipow.WithScorer(model),
		aipow.WithPolicy(aipow.Policy2()),
		aipow.WithSource(store),
	)
	if err != nil {
		t.Fatal(err)
	}

	ben, err := fw.Decide(aipow.RequestContext{IP: benIP})
	if err != nil {
		t.Fatal(err)
	}
	mal, err := fw.Decide(aipow.RequestContext{IP: malIP})
	if err != nil {
		t.Fatal(err)
	}
	if ben.Difficulty >= mal.Difficulty {
		t.Fatalf("benign difficulty %d not below malicious %d (scores %.1f vs %.1f)",
			ben.Difficulty, mal.Difficulty, ben.Score, mal.Score)
	}

	sol, stats, err := aipow.NewSolver().Solve(context.Background(), ben.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts == 0 {
		t.Fatal("no solve work recorded")
	}
	if err := fw.Verify(sol, benIP); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := fw.Verify(sol, benIP); !errors.Is(err, aipow.ErrReplayed) {
		t.Fatalf("replay err = %v, want ErrReplayed", err)
	}
}

func TestPublicPolicyHelpers(t *testing.T) {
	if d := aipow.Policy1().Difficulty(10); d != 11 {
		t.Errorf("Policy1(10) = %d, want 11", d)
	}
	if d := aipow.Policy2().Difficulty(0); d != 5 {
		t.Errorf("Policy2(0) = %d, want 5", d)
	}
	p3, err := aipow.Policy3(aipow.WithEpsilon(1), aipow.WithPolicySeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if d := p3.Difficulty(5); d < 5 || d > 7 {
		t.Errorf("Policy3(5) = %d, want within [5, 7]", d)
	}
	rules, err := aipow.ParsePolicyRules("when score >= 5 use 9\ndefault 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.Difficulty(7); d != 9 {
		t.Errorf("rules(7) = %d, want 9", d)
	}
	reg := aipow.NewPolicyRegistry()
	p, err := reg.New("linear(base=3,slope=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Difficulty(10); d != 8 {
		t.Errorf("linear spec difficulty = %d, want 8", d)
	}
}

func TestPublicHTTPIntegration(t *testing.T) {
	model, store, _, _ := trainedModel(t)
	fw, err := aipow.New(
		aipow.WithKey(testKey),
		aipow.WithScorer(model),
		aipow.WithPolicy(aipow.Policy1()),
		aipow.WithSource(store),
	)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := aipow.NewHTTPMiddleware(fw, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, "ok")
		}))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(protected)
	defer srv.Close()

	// Plain client gets challenged.
	plain, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, plain.Body)
	plain.Body.Close()
	if plain.StatusCode != aipow.StatusChallenge {
		t.Fatalf("plain status = %d, want %d", plain.StatusCode, aipow.StatusChallenge)
	}

	// Solving client passes.
	var solved int
	client := &http.Client{Transport: aipow.NewHTTPTransport(
		aipow.WithSolveObserver(func(aipow.SolveStats) { solved++ }),
	)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "ok" || solved != 1 {
		t.Fatalf("body=%q solved=%d", body, solved)
	}
}

func TestPublicModelPersistence(t *testing.T) {
	model, _, _, _ := trainedModel(t)
	var b strings.Builder
	if err := model.Save(&b); err != nil {
		t.Fatal(err)
	}
	loaded, err := aipow.LoadReputationModel(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	probe := map[string]float64{}
	for _, name := range model.AttributeNames() {
		probe[name] = 1
	}
	a, err := model.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loaded.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("score changed across save/load: %v vs %v", a, c)
	}
}

func TestPublicEvaluate(t *testing.T) {
	cfg := aipow.DefaultDatasetConfig()
	cfg.N = 1500
	data, err := aipow.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := aipow.DatasetToSamples(data)
	model, err := aipow.TrainReputationModel(samples[:1200])
	if err != nil {
		t.Fatal(err)
	}
	ev, err := aipow.EvaluateScorer(model, samples[1200:], aipow.MaxScore/2)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() < 0.6 {
		t.Fatalf("accuracy = %v, implausibly low", ev.Accuracy())
	}
}
