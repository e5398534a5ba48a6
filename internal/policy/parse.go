package policy

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"aipow/internal/puzzle"
)

// Parse resolves a policy spec "name" or "name(k=v,k2=v2)" into a
// Policy. The set of names is fixed:
//
//	policy1                                   paper Policy 1
//	policy2                                   paper Policy 2
//	policy3(epsilon=2.5, seed=<n>)            paper Policy 3
//	fixed(difficulty=<n>)                     non-adaptive baseline
//	linear(base=1, slope=1)                   generic linear family
//	exponential(base=1, factor=0.4)           generic exponential family
//	shape(inner=<spec>, anchor=5, floor=0.5)  confidence shaping
//
// base, difficulty and seed are integers; base and epsilon lie in
// [0, puzzle.MaxDifficulty], difficulty in the protocol range. shape's
// inner parameter is itself a policy spec, nested parentheses included:
// shape(inner=linear(base=1, slope=1.2)).
func Parse(spec string) (Policy, error) {
	name, raw, err := ParseSpecParams(spec)
	if err != nil {
		return nil, err
	}
	decode := func(fields ...Field) error {
		if err := DecodeParams(raw, fields...); err != nil {
			return fmt.Errorf("policy: %s: %w", name, err)
		}
		return nil
	}
	switch name {
	case "policy1", "policy2":
		if err := decode(); err != nil {
			return nil, err
		}
		if name == "policy1" {
			return Policy1(), nil
		}
		return Policy2(), nil
	case "policy3":
		eps, seed := DefaultEpsilon, -1
		if err := decode(Field{Name: "epsilon", Dst: &eps}, Field{Name: "seed", Dst: &seed}); err != nil {
			return nil, err
		}
		opts := []ErrorRangeOption{WithEpsilon(eps)}
		if seed >= 0 {
			opts = append(opts, WithSeed(uint64(seed)))
		}
		return Policy3(opts...)
	case "fixed":
		d := 0
		if err := decode(Field{Name: "difficulty", Min: puzzle.MinDifficulty, Dst: &d}); err != nil {
			return nil, err
		}
		if d == 0 {
			return nil, fmt.Errorf("policy: fixed requires difficulty=<n>")
		}
		return NewFixed(d)
	case "linear":
		base, slope := 1, 1.0
		if err := decode(Field{Name: "base", Dst: &base}, Field{Name: "slope", Dst: &slope}); err != nil {
			return nil, err
		}
		return NewLinear(base, slope)
	case "exponential":
		base, factor := 1, 0.4
		if err := decode(Field{Name: "base", Dst: &base}, Field{Name: "factor", Dst: &factor}); err != nil {
			return nil, err
		}
		return NewExponential(base, factor)
	case "shape":
		var innerSpec string
		anchor, floor := DefaultShapeAnchor, DefaultShapeFloor
		if err := decode(
			Field{Name: "inner", Dst: &innerSpec},
			Field{Name: "anchor", Dst: &anchor},
			Field{Name: "floor", Dst: &floor},
		); err != nil {
			return nil, err
		}
		if innerSpec == "" {
			return nil, fmt.Errorf("policy: %q requires inner=<policy spec>", spec)
		}
		inner, err := Parse(innerSpec)
		if err != nil {
			return nil, fmt.Errorf("policy: shape inner: %w", err)
		}
		return NewConfidenceShaped(inner, anchor, floor)
	}
	return nil, fmt.Errorf("policy: unknown policy %q (known: exponential, fixed, linear, policy1, policy2, policy3, shape)", name)
}

// ParseSpec splits a component specification "name" or "name(k=v,k2=v2)"
// into its name and numeric parameters, the form the control plane's
// scorer and source factories take. Policies, scorers and sources share
// the grammar (ParseSpecParams), so operators learn one spec syntax.
func ParseSpec(spec string) (name string, params map[string]float64, err error) {
	name, raw, err := ParseSpecParams(spec)
	if err != nil {
		return "", nil, err
	}
	params, err = convertParams(raw)
	return name, params, err
}

// RejectUnknownParams errors on any parameter key outside the allowed set;
// component factories use it so configuration typos fail loudly.
func RejectUnknownParams(params map[string]float64, allowed ...string) error {
	for k := range params {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("spec: unknown parameter %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// Param is one raw parameter of a component spec, in declaration order:
// key=value, or a positional value with an empty Key.
type Param struct {
	Key, Value string
}

// ParseSpecParams splits "name" or "name(k=v,k2=v2)" into its name and raw
// string-valued parameters, preserving declaration order and respecting
// nested parentheses inside values. It is the shared shell of every
// component grammar in the framework: ParseSpec layers the numeric
// conversion scorers and sources use on top, and DecodeParams (what Parse
// uses) reads the raw form into typed fields, so parameter values can
// themselves be component specs ("policy=fixed(difficulty=16)"). A
// parameter without '=' is positional ("peers(a, b)", "exchange(1s)"); a
// key given twice is an error.
//
// A bare name returns nil params; "name()" returns an empty non-nil slice.
func ParseSpecParams(spec string) (string, []Param, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return "", nil, fmt.Errorf("spec: empty spec")
	}
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		return spec, nil, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("spec: unbalanced parentheses in %q", spec)
	}
	name := strings.TrimSpace(spec[:open])
	if name == "" {
		return "", nil, fmt.Errorf("spec: missing name in %q", spec)
	}
	inner := spec[open+1 : len(spec)-1]
	params := []Param{}
	if strings.TrimSpace(inner) == "" {
		return name, params, nil
	}
	parts, err := SplitTopLevel(inner, func(c rune) bool { return c == ',' })
	if err != nil {
		return "", nil, fmt.Errorf("spec: %w", err)
	}
	seen := make(map[string]bool)
	for _, kv := range parts {
		k, v, keyed := strings.Cut(kv, "=")
		if !keyed {
			params = append(params, Param{Value: strings.TrimSpace(kv)})
			continue
		}
		k = strings.TrimSpace(k)
		if seen[k] {
			return "", nil, fmt.Errorf("spec: duplicate parameter %q", k)
		}
		seen[k] = true
		params = append(params, Param{Key: k, Value: strings.TrimSpace(v)})
	}
	return name, params, nil
}

// SplitTopLevel splits s at the runes sep reports outside parentheses,
// keeping empty parts. Unbalanced parentheses are an error.
func SplitTopLevel(s string, sep func(rune) bool) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	for i, c := range s {
		switch {
		case c == '(':
			depth++
		case c == ')':
			depth--
		case depth == 0 && sep(c):
			parts, start = append(parts, s[start:i]), i+utf8.RuneLen(c)
		}
		if depth < 0 {
			break
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced parentheses in %q", s)
	}
	return append(parts, s[start:]), nil
}

// convertParams converts raw key=value parameters to the numeric map the
// factory interface consumes (nil in, nil out).
func convertParams(raw []Param) (map[string]float64, error) {
	if raw == nil {
		return nil, nil
	}
	params := make(map[string]float64, len(raw))
	for _, p := range raw {
		if p.Key == "" {
			return nil, fmt.Errorf("spec: parameter %q is not key=value", p.Value)
		}
		val, err := strconv.ParseFloat(p.Value, 64)
		if err != nil {
			return nil, fmt.Errorf("spec: parameter %q: %w", p.Key, err)
		}
		params[p.Key] = val
	}
	return params, nil
}

// Field is one typed parameter of a component grammar. Dst points at the
// value, whose Go type says how its text decodes: string (verbatim), int,
// float64 or *float64 (a finite number), time.Duration or any other
// int64-kinded type ("30s"), []string (whitespace-separated words,
// appended). A number below Min is an error.
type Field struct {
	Name string
	Min  float64
	Dst  any
}

// Set decodes raw into the field's value and checks its bound. Errors
// name the field when it has a name.
func (f Field) Set(raw string) (err error) {
	v := reflect.ValueOf(f.Dst).Elem()
	switch v.Kind() {
	case reflect.String:
		v.SetString(raw)
	case reflect.Slice:
		v.Set(reflect.AppendSlice(v, reflect.ValueOf(strings.Fields(raw))))
	case reflect.Int64:
		var d time.Duration
		d, err = time.ParseDuration(raw)
		v.SetInt(int64(d))
	case reflect.Int:
		var n int
		n, err = strconv.Atoi(raw)
		v.SetInt(int64(n))
	default: // float64 or *float64
		var x float64
		x, err = strconv.ParseFloat(raw, 64)
		if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
			err = fmt.Errorf("%q is not a finite number", raw)
		}
		if v.Kind() == reflect.Pointer {
			v.Set(reflect.ValueOf(&x))
		} else {
			v.SetFloat(x)
		}
	}
	switch {
	case err != nil && f.Name != "":
		return fmt.Errorf("%s: %w", f.Name, err)
	case err != nil:
		return err
	}
	return f.Check()
}

// Check reports a numeric value below Min; other values always pass.
func (f Field) Check() error {
	v := reflect.Indirect(reflect.ValueOf(f.Dst).Elem())
	var x float64
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		x = float64(v.Int())
	case reflect.Float64:
		x = v.Float()
	default:
		return nil
	}
	switch {
	case x >= f.Min:
		return nil
	case f.Min == 0:
		return fmt.Errorf("negative %s", f.Name)
	}
	return fmt.Errorf("%s %v below minimum %v", f.Name, v.Interface(), f.Min)
}

// DecodeParams sets each parameter on the field of the same name and
// checks its bound; positional parameters go to the field named "". A
// parameter no field takes is an error, and so is a second value for a
// field that is not a list.
func DecodeParams(params []Param, fields ...Field) error {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		i := slices.IndexFunc(fields, func(f Field) bool { return f.Name == p.Key })
		switch {
		case i < 0 && p.Key == "":
			return fmt.Errorf("parameter %q is not key=value", p.Value)
		case i < 0:
			return fmt.Errorf("unknown parameter %q", p.Key)
		case seen[p.Key] && reflect.TypeOf(fields[i].Dst).Elem().Kind() != reflect.Slice:
			return fmt.Errorf("extra value %q", p.Value)
		}
		seen[p.Key] = true
		if err := fields[i].Set(p.Value); err != nil {
			return err
		}
	}
	return nil
}
