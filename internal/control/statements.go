package control

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"unicode"

	"aipow/internal/obs"
	"aipow/internal/policy"
)

// stmt is one row of the pipeline grammar: a statement, a setting of a
// section, or a parameter of a group. The text parser, validate, specEqual
// and swappableEqual all walk the one table below; adding a statement is
// adding a row (and its SPEC.md line, which TestSpecMatchesStatementTable
// checks). The Go type of the field says how a value decodes (see
// policy.Field).
type stmt struct {
	// name is the text spelling. Dots separate a section from its
	// settings and groups: "redeem.half-life" is redeem(half-life=…),
	// "cluster.filter.bits" is cluster filter(bits=…), "adapt.capacity"
	// is an `adapt capacity <rate>` line.
	name string
	form form
	// field is where the value lives in PipelineSpec: "TTL", or
	// "Section.Field" inside an optional section. Empty for a statement
	// that only names its groups (observe).
	field string
	// min is the lower bound of a numeric value.
	min float64
	// rebuild: a change rebuilds the pipeline; it is not hot-swappable.
	rebuild bool
	// effective, when set, is the value comparisons use in place of the
	// declared one (equivalent spellings are not a change).
	effective func(*PipelineSpec) any
}

// form is how a row is written in the text DSL.
type form uint8

const (
	formValue    form = iota // `<name> <value>`, or k=v inside its group's parentheses
	formLine                 // the whole line, repeatable: inline rules, escalate rungs
	formGroup                // its own group: `<name>(<value>, …)`
	formGroups               // a section line: `<name>[(k=v, …)] <group>(…) …`
	formSettings             // a section spread over `<name> <setting> <value>` lines
	formFields               // a section line of positional values: `<name> <v1> <v2>`
)

// noMin marks a number with no lower bound.
var noMin = math.Inf(-1)

// statements is the pipeline grammar.
var statements = []stmt{
	{"scorer", formValue, "Scorer", 0, false, nil},
	{"policy", formValue, "Policy", 0, false, nil},
	{"when", formLine, "PolicyRules", 0, false, nil},
	{"default", formLine, "PolicyRules", 0, false, nil},
	{"source", formValue, "Source", 0, false, nil},
	{"puzzle", formValue, "Puzzle", 0, true, func(p *PipelineSpec) any { return canonicalPuzzle(p.Puzzle) }},
	{"ttl", formValue, "TTL", 0, true, nil},
	{"max-difficulty", formValue, "MaxDifficulty", 0, true, nil},
	{"bypass-below", formValue, "BypassBelow", noMin, false, nil},
	{"fail-closed", formValue, "FailClosedScore", noMin, false, nil},
	{"replay-cache", formValue, "ReplayCache", noMin, true, nil},
	{"auth-cache", formValue, "AuthCacheSlots", 0, true, nil},
	{"clock-skew", formValue, "ClockSkew", 0, true, nil},
	{"window", formValue, "TrackerWindow", 0, true, nil},
	{"redeem", formGroups, "Redeem", 0, false, nil},
	{"redeem.max", formValue, "Redeem.Max", 0, false, nil},
	{"redeem.half-credit", formValue, "Redeem.HalfCredit", 0, false, nil},
	{"redeem.half-life", formValue, "Redeem.HalfLife", 0, true, nil},
	{"evidence-buffer", formFields, "EvidenceBuffer", 0, true, nil},
	{"evidence-buffer.size", formValue, "EvidenceBuffer.Size", 2, true, nil},
	{"evidence-buffer.interval", formValue, "EvidenceBuffer.Interval", 0, true, nil},
	{"cluster", formGroups, "Cluster", 0, true, nil},
	{"cluster.peers", formGroup, "Cluster.Peers", 0, true, nil},
	{"cluster.exchange", formGroup, "Cluster.Exchange", 0, true, nil},
	{"cluster.filter.bits", formValue, "Cluster.FilterBits", 0, true, nil},
	{"cluster.filter.hashes", formValue, "Cluster.FilterHashes", 0, true, nil},
	{"cluster.delta.every", formValue, "Cluster.DeltaEvery", 0, true, nil},
	{"observe", formGroups, "", 0, false, nil},
	{"observe.trace", formGroup, "Observe", 0, false, nil},
	{"observe.trace.sample", formValue, "Observe.TraceSample", 0, false, func(p *PipelineSpec) any { s, _ := traceGeometry(p.Observe); return s }},
	{"observe.trace.ring", formValue, "Observe.TraceRing", 0, false, func(p *PipelineSpec) any { _, n := traceGeometry(p.Observe); return n }},
	{"adapt", formSettings, "Adapt", 0, false, nil},
	{"adapt.escalate", formLine, "Adapt.Rules", 0, false, nil},
	{"adapt.interval", formValue, "Adapt.Interval", 0, false, nil},
	{"adapt.capacity", formValue, "Adapt.Capacity", 0, false, nil},
	{"adapt.hard", formValue, "Adapt.Hard", 0, false, nil},
	{"adapt.window", formValue, "Adapt.Window", 0, false, nil},
	{"adapt.load-shift", formValue, "Adapt.LoadShift", 0, false, nil},
}

// lookup finds the row spelled name.
func lookup(name string) *stmt {
	for i := range statements {
		if statements[i].name == name {
			return &statements[i]
		}
	}
	return nil
}

// children lists the rows directly under name.
func children(name string) []*stmt {
	var out []*stmt
	for i := range statements {
		rest, ok := strings.CutPrefix(statements[i].name, name+".")
		if ok && !strings.Contains(rest, ".") {
			out = append(out, &statements[i])
		}
	}
	return out
}

// label is the row's spelling for messages: "adapt capacity".
func (r *stmt) label() string { return strings.ReplaceAll(r.name, ".", " ") }

// word is the last part of the row's spelling: "capacity".
func (r *stmt) word() string { return r.name[strings.LastIndexByte(r.name, '.')+1:] }

// value resolves the row's field in p. A value inside an absent section
// reads as the zero value, present false, unless mk allocates the section;
// mk also allocates a section the row itself names.
func (r *stmt) value(p *PipelineSpec, mk bool) (reflect.Value, bool) {
	sec, field, nested := strings.Cut(r.field, ".")
	v := reflect.ValueOf(p).Elem().FieldByName(sec)
	if v.Kind() == reflect.Pointer && v.IsNil() && v.Type().Elem().Kind() == reflect.Struct {
		switch {
		case mk:
			v.Set(reflect.New(v.Type().Elem()))
		case nested:
			return reflect.New(v.Type().Elem()).Elem().FieldByName(field), false
		}
	}
	if nested {
		v = v.Elem().FieldByName(field)
	}
	return v, true
}

// target is the row's value in p as a decoder target, its bound left to
// validate.
func (r *stmt) target(p *PipelineSpec, name string) policy.Field {
	v, _ := r.value(p, true)
	return policy.Field{Name: name, Min: noMin, Dst: v.Addr().Interface()}
}

// key is the row's value in p in comparable form: a section's presence, an
// optional score's value or false, a list as text (nil and empty alike).
func (r *stmt) key(p PipelineSpec) any {
	if r.effective != nil {
		return r.effective(&p)
	}
	v, _ := r.value(&p, false)
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Elem().Kind() == reflect.Struct {
			return !v.IsNil()
		}
		return v.Elem().Float()
	case reflect.Slice:
		return fmt.Sprintf("%q", v.Interface())
	}
	return v.Interface()
}

// diff reports the first row keep selects whose value differs between a
// and b, nil when none does.
func diff(a, b PipelineSpec, keep func(*stmt) bool) error {
	for i := range statements {
		r := &statements[i]
		if r.field == "" || !keep(r) {
			continue
		}
		if x, y := r.key(a), r.key(b); x != y {
			return fmt.Errorf("%s %v → %v", r.label(), x, y)
		}
	}
	return nil
}

// set folds one pipeline-block line into p. prefix is the section a
// settings line belongs to ("adapt."). seen records the statements the
// block already set: repeating one is an error, so a merge artifact like
// two bypass-below lines fails loudly instead of last-wins.
func (p *PipelineSpec) set(prefix, line string, seen map[string]bool) error {
	word := strings.Fields(line)[0]
	r := lookup(prefix + word)
	if head, _, ok := strings.Cut(word, "("); r == nil && ok {
		// redeem(max=6), adapt escalate(when=…): parameters attached to
		// the name.
		if r = lookup(prefix + head); r != nil && r.form != formGroups && prefix == "" {
			r = nil
		}
	}
	switch {
	case r == nil && prefix != "":
		return fmt.Errorf("unknown %s setting %q", strings.TrimSuffix(prefix, "."), word)
	case r == nil:
		return fmt.Errorf("unknown statement %q", word)
	case r.form != formLine && r.form != formSettings:
		if seen[r.name] {
			return fmt.Errorf("duplicate %s", r.label())
		}
		seen[r.name] = true
	}
	var v reflect.Value
	if r.field != "" {
		v, _ = r.value(p, true)
	}
	tail := strings.Join(strings.Fields(line[len(r.word()):]), " ")
	switch r.form {
	case formLine:
		if v.Kind() == reflect.Slice {
			v.Set(reflect.Append(v, reflect.ValueOf(line)))
		} else {
			v.SetString(strings.TrimPrefix(v.String()+"\n"+line, "\n"))
		}
	case formValue:
		if tail == "" {
			return fmt.Errorf("want '%s <value>'", r.label())
		}
		return r.target(p, r.label()).Set(tail)
	case formSettings:
		if tail == "" {
			return fmt.Errorf("want '%s <setting…>'", r.label())
		}
		return p.set(r.name+".", tail, seen)
	case formFields:
		kids, vals := children(r.name), strings.Fields(tail)
		if len(vals) != len(kids) {
			return fmt.Errorf("want %d values after %s", len(kids), r.name)
		}
		for i, k := range kids {
			if err := k.target(p, k.label()).Set(vals[i]); err != nil {
				return err
			}
		}
	case formGroups:
		return p.setGroups(r, line)
	}
	return nil
}

// setGroups decodes a groups statement: "redeem(max=6)", "cluster peers(a)
// exchange(1s) filter(bits=1024)", "observe trace(sample=64)". Each group
// is split by policy.ParseSpecParams; its k=v parameters set the rows
// under it, and positional values set the group's own row.
func (p *PipelineSpec) setGroups(r *stmt, line string) error {
	groups, err := policy.SplitTopLevel(spaceBeforeParen.ReplaceAllString(line, "("), unicode.IsSpace)
	if err != nil {
		return fmt.Errorf("%s: unclosed group: %w", r.label(), err)
	}
	groups = slices.DeleteFunc(groups, func(g string) bool { return g == "" })
	if len(groups) == 1 && r.field == "" {
		return fmt.Errorf("want '%s %s(…)'", r.name, children(r.name)[0].word())
	}
	seen := make(map[string]bool, len(groups))
	for i, g := range groups {
		name, params, err := policy.ParseSpecParams(g)
		path := r.name
		if i > 0 {
			path += "." + name
		}
		var fields []policy.Field
		for _, k := range children(path) {
			if k.form == formValue {
				fields = append(fields, k.target(p, k.word()))
			}
		}
		section := i == 0
		if own := lookup(path); own != nil && own.form == formGroup {
			v, _ := own.value(p, true)
			if section = v.Kind() == reflect.Pointer; !section {
				fields = append(fields, own.target(p, ""))
			}
		}
		switch {
		case err != nil:
		case seen[name]:
			err = fmt.Errorf("duplicate group %q", name)
		case len(fields) == 0 && !section:
			err = fmt.Errorf("unknown group %q", name)
		case params == nil && !section:
			err = fmt.Errorf("want '%s(…)'", name)
		default:
			err = policy.DecodeParams(params, fields...)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", r.label(), err)
		}
		seen[name] = true
	}
	return nil
}

// spaceBeforeParen joins "peers (a)" into the group "peers(a)".
var spaceBeforeParen = regexp.MustCompile(`\s+\(`)

// traceGeometry is an observe section's effective sample rate and ring
// size: zero takes the obs default, then NewTraceRing's rounding applies.
func traceGeometry(o *ObserveSpec) (sample, ring int) {
	if o == nil {
		return 0, 0
	}
	return obs.TraceGeometry(cmp.Or(o.TraceSample, obs.DefaultTraceSample), cmp.Or(o.TraceRing, obs.DefaultTraceRingSize))
}
