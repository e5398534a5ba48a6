package attack

import (
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/netsim"
	"aipow/internal/policy"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

// threatScorer reads the "threat" attribute as the score.
var threatScorer, _ = features.NewMapScorer(func(attrs map[string]float64) (float64, error) {
	return attrs["threat"], nil
}, "threat")

// buildFramework wires a framework whose store marks the given scenario's
// bot populations with high threat and benign ones with low threat.
func buildFramework(t *testing.T, sc Scenario, pol policy.Policy, opts ...core.Option) *core.Framework {
	t.Helper()
	store, err := features.NewMapStore(map[string]float64{"threat": 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, ips := range sc.ClientIPs() {
		threat := 1.0
		if sc.Specs[i].Kind == KindBot {
			threat = 9.0
		}
		for _, ip := range ips {
			store.Put(ip, map[string]float64{"threat": threat})
		}
	}
	base := []core.Option{
		core.WithKey(testKey),
		core.WithScorer(threatScorer),
		core.WithPolicy(pol),
		core.WithSource(store),
		core.WithReplayCacheSize(0), // sim models verify; skip cache growth
	}
	fw, err := core.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// smallScenario is a fast mixed workload.
func smallScenario() Scenario {
	return Scenario{
		Duration: 20 * time.Second,
		Specs: []ClientSpec{
			{Kind: KindBenign, Count: 10, RequestRate: 0.5, HashRate: 27000, Strategy: StrategySolve},
			{Kind: KindBot, Count: 40, RequestRate: 2, HashRate: 27000, Strategy: StrategySolve},
		},
		Link:       netsim.Link{OneWay: 5 * time.Millisecond},
		IssueTime:  200 * time.Microsecond,
		VerifyTime: 200 * time.Microsecond,
		Seed:       7,
	}
}

func TestScenarioValidation(t *testing.T) {
	fw := buildFramework(t, smallScenario(), policy.Policy1())
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"zero_duration", func(s *Scenario) { s.Duration = 0 }},
		{"no_specs", func(s *Scenario) { s.Specs = nil }},
		{"bad_rate", func(s *Scenario) { s.Specs[0].RequestRate = 0 }},
		{"bad_strategy", func(s *Scenario) { s.Specs[0].Strategy = 0 }},
		{"no_hash_rate", func(s *Scenario) { s.Specs[0].HashRate = 0 }},
		{"negative_count", func(s *Scenario) { s.Specs[0].Count = -1 }},
		{"negative_service", func(s *Scenario) { s.IssueTime = -time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := smallScenario()
			tt.mutate(&sc)
			if _, err := Run(fw, sc); err == nil {
				t.Fatal("invalid scenario accepted")
			}
		})
	}
	if _, err := Run(nil, smallScenario()); err == nil {
		t.Fatal("nil framework accepted")
	}
}

func TestClientIPsDeterministicAndDistinct(t *testing.T) {
	sc := smallScenario()
	a, b := sc.ClientIPs(), sc.ClientIPs()
	seen := map[string]bool{}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("ClientIPs not deterministic")
			}
			if seen[a[i][j]] {
				t.Fatalf("duplicate IP %s", a[i][j])
			}
			seen[a[i][j]] = true
		}
	}
}

func TestRunServesTraffic(t *testing.T) {
	sc := smallScenario()
	fw := buildFramework(t, sc, policy.Policy1())
	res, err := Run(fw, sc)
	if err != nil {
		t.Fatal(err)
	}
	ben := res.ByKind[KindBenign]
	bot := res.ByKind[KindBot]
	if ben.Requests == 0 || bot.Requests == 0 {
		t.Fatalf("no traffic generated: %+v / %+v", ben, bot)
	}
	if ben.Served == 0 {
		t.Fatal("no benign request served")
	}
	if ben.Latency.Count() != int(ben.Served) {
		t.Fatalf("latency samples %d != served %d", ben.Latency.Count(), ben.Served)
	}
	// Bots score 9 → policy1 difficulty 10; benign score 1 → difficulty 2.
	// Bot latency must be visibly higher.
	if !(bot.Latency.Median() > ben.Latency.Median()) {
		t.Fatalf("bot median %.2fms not above benign median %.2fms",
			bot.Latency.Median(), ben.Latency.Median())
	}
	if res.PolicyName != "policy1" {
		t.Fatalf("PolicyName = %q", res.PolicyName)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	sc := smallScenario()
	a, err := Run(buildFramework(t, sc, policy.Policy1()), sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(buildFramework(t, sc, policy.Policy1()), sc)
	if err != nil {
		t.Fatal(err)
	}
	for kind := range a.ByKind {
		if a.ByKind[kind].Served != b.ByKind[kind].Served ||
			a.ByKind[kind].Requests != b.ByKind[kind].Requests {
			t.Fatalf("kind %v differs across identical seeds", kind)
		}
	}
}

func TestIgnoreStrategyNeverServed(t *testing.T) {
	sc := smallScenario()
	sc.Specs[1].Strategy = StrategyIgnore
	sc.Specs[1].HashRate = 0 // legal for ignore
	fw := buildFramework(t, sc, policy.Policy1())
	res, err := Run(fw, sc)
	if err != nil {
		t.Fatal(err)
	}
	bot := res.ByKind[KindBot]
	if bot.Served != 0 {
		t.Fatalf("ignoring bots served %d times", bot.Served)
	}
	if bot.Challenged == 0 {
		t.Fatal("ignoring bots never challenged")
	}
	if bot.SolveAttempts != 0 {
		t.Fatal("ignoring bots expended solve work")
	}
}

func TestGiveUpStrategy(t *testing.T) {
	sc := smallScenario()
	sc.Specs[1].Strategy = StrategyGiveUpAbove
	sc.Specs[1].GiveUpAt = 5 // bots get difficulty 10 → always give up
	fw := buildFramework(t, sc, policy.Policy1())
	res, err := Run(fw, sc)
	if err != nil {
		t.Fatal(err)
	}
	bot := res.ByKind[KindBot]
	if bot.Served != 0 || bot.GaveUp == 0 {
		t.Fatalf("give-up bots: served=%d gaveUp=%d", bot.Served, bot.GaveUp)
	}
	// Benign clients (difficulty 2) still get served.
	if res.ByKind[KindBenign].Served == 0 {
		t.Fatal("benign starved")
	}
}

func TestQueueCapDropsUnderFlood(t *testing.T) {
	sc := Scenario{
		Duration: 10 * time.Second,
		Specs: []ClientSpec{
			{Kind: KindBot, Count: 50, RequestRate: 10, HashRate: 1e6, Strategy: StrategySolve},
		},
		Link:       netsim.Link{OneWay: time.Millisecond},
		IssueTime:  5 * time.Millisecond, // deliberately slow server
		VerifyTime: 5 * time.Millisecond,
		QueueCap:   10,
		Seed:       3,
	}
	fw := buildFramework(t, sc, policy.Policy1())
	res, err := Run(fw, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerDropped == 0 {
		t.Fatal("overloaded bounded queue dropped nothing")
	}
	if res.PeakQueue != 10 {
		t.Fatalf("PeakQueue = %d, want cap 10", res.PeakQueue)
	}
	if res.ByKind[KindBot].Dropped == 0 {
		t.Fatal("client-side drop accounting missing")
	}
}

func TestGoodputAccessor(t *testing.T) {
	sc := smallScenario()
	fw := buildFramework(t, sc, policy.Policy1())
	res, err := Run(fw, sc)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Goodput(KindBenign, sc.Duration)
	want := float64(res.ByKind[KindBenign].Served) / sc.Duration.Seconds()
	if g != want {
		t.Fatalf("Goodput = %v, want %v", g, want)
	}
	if res.Goodput(Kind(99), sc.Duration) != 0 {
		t.Fatal("unknown kind goodput should be 0")
	}
}

func TestKindString(t *testing.T) {
	if KindBenign.String() != "benign" || KindBot.String() != "bot" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}
