package control

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"aipow/internal/policy"
)

// specText is a representative two-pipeline deployment in the text DSL,
// exercising component params, inline rules, limits, and both route kinds.
const specText = `
# demo deployment
pipeline api
  scorer threat
  policy policy2
  source store
  ttl 45s
  max-difficulty 18
  bypass-below 1.5
  fail-closed 9
  replay-cache 1024
  auth-cache 8192
  clock-skew 3s

pipeline static
  scorer threat
  when score >= 8 use 14
  when score < 2 use 1
  default 3

route /api/ api
route / static
tenant gold api
`

func TestParseDeploymentText(t *testing.T) {
	d, err := ParseDeployment(specText)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Pipelines) != 2 || len(d.Routes) != 3 {
		t.Fatalf("parsed %d pipelines, %d routes", len(d.Pipelines), len(d.Routes))
	}
	api, ok := d.Pipeline("api")
	if !ok {
		t.Fatal("pipeline api missing")
	}
	if api.Scorer != "threat" || api.Policy != "policy2" || api.Source != "store" {
		t.Fatalf("api components = %q/%q/%q", api.Scorer, api.Policy, api.Source)
	}
	if time.Duration(api.TTL) != 45*time.Second || api.MaxDifficulty != 18 ||
		api.ReplayCache != 1024 || api.AuthCacheSlots != 8192 ||
		time.Duration(api.ClockSkew) != 3*time.Second {
		t.Fatalf("api limits = %+v", api)
	}
	if api.BypassBelow == nil || *api.BypassBelow != 1.5 {
		t.Fatalf("api bypass = %v", api.BypassBelow)
	}
	if api.FailClosedScore == nil || *api.FailClosedScore != 9 {
		t.Fatalf("api fail-closed = %v", api.FailClosedScore)
	}
	static, _ := d.Pipeline("static")
	if static.Policy != "" || !strings.Contains(static.PolicyRules, "when score >= 8 use 14") {
		t.Fatalf("static inline rules = %q", static.PolicyRules)
	}
	if d.Routes[2].Tenant != "gold" || d.Routes[2].Pipeline != "api" {
		t.Fatalf("tenant route = %+v", d.Routes[2])
	}
}

func TestParseDeploymentJSONRoundTrip(t *testing.T) {
	d, err := ParseDeployment(specText)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDeployment(string(buf))
	if err != nil {
		t.Fatalf("reparse canonical JSON: %v", err)
	}
	if len(d2.Pipelines) != len(d.Pipelines) || len(d2.Routes) != len(d.Routes) {
		t.Fatalf("round trip lost structure: %+v", d2)
	}
	api, _ := d2.Pipeline("api")
	if time.Duration(api.TTL) != 45*time.Second {
		t.Fatalf("round trip lost ttl: %v", time.Duration(api.TTL))
	}
}

func TestParseDeploymentErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty", "", "no pipelines"},
		{"unknown statement", "pipeline p\n scorer s\n policy policy2\nfrobnicate 3\n", "unknown statement"},
		{"statement outside block", "scorer s\n", "outside a pipeline block"},
		{"missing scorer", "pipeline p\n policy policy2\n", "names no scorer"},
		{"missing policy", "pipeline p\n scorer s\n", "names no policy"},
		{"policy and rules", "pipeline p\n scorer s\n policy policy2\n when score >= 5 use 9\n default 2\n", "both a policy spec and inline rules"},
		{"duplicate pipeline", "pipeline p\n scorer s\n policy policy2\npipeline p\n scorer s\n policy policy2\n", "duplicate pipeline"},
		{"duplicate field", "pipeline p\n scorer s\n scorer t\n policy policy2\n", "duplicate scorer"},
		{"duplicate scalar", "pipeline p\n scorer s\n policy policy2\n bypass-below 1\n bypass-below 7\n", "duplicate bypass-below"},
		{"duplicate ttl", "pipeline p\n scorer s\n policy policy2\n ttl 30s\n ttl 60s\n", "duplicate ttl"},
		{"bad duration", "pipeline p\n scorer s\n policy policy2\n ttl fast\n", "ttl"},
		{"bad difficulty", "pipeline p\n scorer s\n policy policy2\n max-difficulty high\n", "max-difficulty"},
		{"negative ttl", "pipeline p\n scorer s\n policy policy2\n ttl -5s\n", "negative ttl"},
		{"route unknown pipeline", "pipeline p\n scorer s\n policy policy2\nroute / q\n", "unknown pipeline"},
		{"route without slash", "pipeline p\n scorer s\n policy policy2\nroute api p\n", "must start with /"},
		{"no catch-all", "pipeline p\n scorer s\n policy policy2\nroute /api p\n", "no catch-all"},
		{"duplicate route", "pipeline p\n scorer s\n policy policy2\nroute / p\nroute / p\n", "duplicate route"},
		{"multi pipeline no routes", "pipeline p\n scorer s\n policy policy2\npipeline q\n scorer s\n policy policy2\n", "no routes"},
		{"fail-closed range", "pipeline p\n scorer s\n policy policy2\n fail-closed 11\n", "outside [0, 10]"},
		{"bad route arity", "pipeline p\n scorer s\n policy policy2\nroute /\n", "want 'route"},
		{"bad json", `{"pipelines": [{"name": 3}]}`, "parse JSON spec"},
		{"unknown json field", `{"pipelines": [{"name": "p", "scorer": "s", "policy": "policy2", "wat": 1}]}`, "parse JSON spec"},
		{"invalid utf-8", "pipeline 0\nscorer 0\npolicy 0\x94", "line 3: invalid UTF-8"},
		{"non-finite score", "pipeline p\n scorer s\n policy policy2\n fail-closed NaN\n", "finite"},
		{"json bad duration", `{"pipelines": [{"name": "p", "scorer": "s", "policy": "policy2", "ttl": "soon"}]}`, "bad duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDeployment(tc.src)
			if err == nil {
				t.Fatalf("accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSwappableEqual(t *testing.T) {
	base := PipelineSpec{Name: "p", Scorer: "s", Policy: "policy2"}.withDefaults()
	if err := base.swappableEqual(base); err != nil {
		t.Fatalf("self-compare: %v", err)
	}
	swapped := base
	swapped.Policy = "policy1"
	swapped.Scorer = "t"
	if err := base.swappableEqual(swapped); err != nil {
		t.Fatalf("swappable-only diff rejected: %v", err)
	}
	for _, mut := range []func(*PipelineSpec){
		func(p *PipelineSpec) { p.TTL = Duration(time.Minute) },
		func(p *PipelineSpec) { p.MaxDifficulty = 9 },
		func(p *PipelineSpec) { p.ReplayCache = 7 },
		func(p *PipelineSpec) { p.AuthCacheSlots = 4096 },
		func(p *PipelineSpec) { p.ClockSkew = Duration(time.Minute) },
	} {
		q := base
		mut(&q)
		if err := base.swappableEqual(q); err == nil {
			t.Fatalf("non-swappable diff accepted: %+v", q)
		}
	}
}

// everyStatementSpec uses every statement in the table at least once.
const everyStatementSpec = `
pipeline all
  scorer threat
  policy policy2
  source store
  puzzle balloon(space=8, time=1)
  ttl 45s
  max-difficulty 18
  bypass-below 1.5
  fail-closed 9
  replay-cache 1024
  auth-cache 8192
  clock-skew 3s
  window 10s
  redeem(max=6, half-credit=26, half-life=2m)
  evidence-buffer 64 5ms
  cluster peers(http://n1:7000/cluster/all, http://n2:7000/cluster/all) exchange(250ms) filter(bits=16384, hashes=5) delta(every=4)
  observe trace(sample=64, ring=128)
  adapt capacity 100
  adapt window 3
  adapt interval 1s
  adapt hard 12
  adapt load-shift 2
  adapt escalate(when=rate>50, policy=policy2, hold=5s)
pipeline rules
  scorer threat
  when score >= 8 use 14
  default 3
route / all
route /r rules
tenant gold rules
`

// specMD returns SPEC.md and the first fenced code block after heading.
func specMD(t testing.TB, heading string) (doc, block string) {
	t.Helper()
	raw, err := os.ReadFile("../../SPEC.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(raw), heading)
	if !ok {
		t.Fatalf("SPEC.md has no %q", heading)
	}
	_, block, _ = strings.Cut(after, "```\n")
	block, _, _ = strings.Cut(block, "```")
	return string(raw), block
}

// FuzzParseDeployment: parsing never panics, and every accepted spec
// prints (Marshal, the JSON GET /spec serves) to a document that parses
// back to an equal deployment and prints to the same bytes.
func FuzzParseDeployment(f *testing.F) {
	_, example := specMD(f, "## Example")
	for _, seed := range []string{specText, example, everyStatementSpec} {
		f.Add(seed)
	}
	// The deployments powserver's end-to-end tests boot.
	booted, err := filepath.Glob("../../cmd/powserver/testdata/*.spec")
	if err != nil || len(booted) == 0 {
		f.Fatalf("powserver testdata specs: %v (found %d)", err, len(booted))
	}
	for _, path := range booted {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(buf))
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDeployment(src)
		if err != nil {
			return
		}
		printed, err := d.Marshal()
		if err != nil {
			t.Fatalf("accepted spec does not print: %v", err)
		}
		back, err := ParseDeployment(string(printed))
		if err != nil {
			t.Fatalf("printed spec does not parse: %v\n%s", err, printed)
		}
		if !depEqual(d, back) {
			t.Fatalf("printed spec parses to a different deployment:\n%s", printed)
		}
		if again, _ := back.Marshal(); !bytes.Equal(printed, again) {
			t.Fatalf("second print differs:\n%s\n%s", printed, again)
		}
	})
}

// TestSpecMatchesStatementTable holds SPEC.md to the statement table:
// every statement its grammar block spells is a row, every row is spelled
// there, and its "Not hot-swappable" list names exactly the rows whose
// change rebuilds a pipeline.
func TestSpecMatchesStatementTable(t *testing.T) {
	doc, grammar := specMD(t, "## Text grammar")
	spelled := map[string]bool{}
	for _, line := range strings.Split(grammar, "\n") {
		text, _, _ := strings.Cut(strings.TrimSpace(line), "  ") // the description follows two spaces
		if text == "" || strings.HasPrefix(line, "   ") {        // a description's continuation
			continue
		}
		groups, err := policy.SplitTopLevel(text, unicode.IsSpace)
		if err != nil {
			t.Fatal(err)
		}
		head, params, _ := policy.ParseSpecParams(groups[0])
		r := lookup(head)
		switch {
		case head == "pipeline" || head == "route" || head == "tenant":
			continue
		case r == nil:
			t.Errorf("SPEC.md statement %q is not in the table", text)
			continue
		case r.form == formSettings:
			groups = groups[:2]
		}
		spelled[head] = true
		for _, p := range params {
			spelled[head+"."+p.Key] = true
		}
		for _, g := range groups[1:] {
			name, params, _ := policy.ParseSpecParams(strings.Trim(g, "<>"))
			switch r.form {
			case formFields, formSettings:
				spelled[head+"."+name] = true
			case formGroups:
				if lookup(head+"."+name) != nil {
					spelled[head+"."+name] = true
				}
				for _, p := range params {
					if p.Key != "" {
						spelled[head+"."+name+"."+p.Key] = true
					}
				}
			}
		}
	}
	for name := range spelled {
		if lookup(name) == nil {
			t.Errorf("SPEC.md spells %q, which the statement table lacks", name)
		}
	}
	var rebuilds []string
	for _, r := range statements {
		covered := false
		for name := range spelled {
			covered = covered || name == r.name || strings.HasPrefix(name, r.name+".")
		}
		if !covered {
			t.Errorf("table row %q is missing from SPEC.md's grammar", r.name)
		}
		parent, _, _ := strings.Cut(r.name, ".")
		if r.rebuild && (parent == r.name || !lookup(parent).rebuild) {
			rebuilds = append(rebuilds, r.name)
		}
	}

	_, list, _ := strings.Cut(doc, "**Not hot-swappable**")
	list, _, _ = strings.Cut(list, "`Pipeline.Apply`")
	var listed []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(list, -1) {
		listed = append(listed, strings.ReplaceAll(m[1], " ", "."))
	}
	slices.Sort(listed)
	slices.Sort(rebuilds)
	if !slices.Equal(listed, rebuilds) {
		t.Errorf("SPEC.md's Not hot-swappable list = %v, the table rebuilds on %v", listed, rebuilds)
	}
}
