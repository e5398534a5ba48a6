package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks that data is a well-formed Prometheus text
// exposition (v0.0.4) and returns the first violation found. It is the
// golden gate behind GET /metrics: powserver's end-to-end test scrapes a
// running node and runs the output through this, as a scraper should
// before trusting any dashboard built on it.
//
// Enforced per family: HELP (if present) precedes TYPE, TYPE precedes
// samples, and all of a family's lines form one contiguous block — no
// interleaving and no duplicate metadata. Enforced per line: names match
// [a-zA-Z_:][a-zA-Z0-9_:]*, label names match [a-zA-Z_][a-zA-Z0-9_]*,
// label values use only the \\, \", and \n escapes, and values parse as
// floats (with +Inf/-Inf/NaN spellings). Enforced per histogram series:
// cumulative buckets are monotone non-decreasing, a +Inf bucket exists,
// and it equals the series' _count.
func ValidateExposition(data []byte) error {
	type famState struct {
		hasHelp bool
		typ     string // "" until TYPE seen
		samples int
		closed  bool // a later family has started samples
	}
	fams := make(map[string]*famState)
	// Histogram series accounting, keyed by family then by the label set
	// minus le.
	type histSeries struct {
		buckets []float64 // in emission order
		les     []string
		hasInf  bool
		infVal  float64
		count   float64
		hasCnt  bool
	}
	hists := make(map[string]map[string]*histSeries)

	open := "" // family currently emitting samples
	closeOpen := func(next string) {
		if open != "" && open != next {
			if f := fams[open]; f != nil {
				f.closed = true
			}
		}
		open = next
	}

	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				continue // arbitrary comment: legal, ignored
			}
			keyword, name := fields[1], fields[2]
			switch keyword {
			case "HELP":
				if !validMetricName(name) {
					return fmt.Errorf("line %d: invalid metric name %q in HELP", lineNo, name)
				}
				f := fams[name]
				if f == nil {
					f = &famState{}
					fams[name] = f
				}
				if f.hasHelp {
					return fmt.Errorf("line %d: duplicate HELP for %q", lineNo, name)
				}
				if f.typ != "" || f.samples > 0 || f.closed {
					return fmt.Errorf("line %d: HELP for %q after its TYPE or samples", lineNo, name)
				}
				f.hasHelp = true
				closeOpen("")
			case "TYPE":
				if !validMetricName(name) {
					return fmt.Errorf("line %d: invalid metric name %q in TYPE", lineNo, name)
				}
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE for %q missing type", lineNo, name)
				}
				typ := strings.TrimSpace(fields[3])
				switch typ {
				case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q for %q", lineNo, typ, name)
				}
				f := fams[name]
				if f == nil {
					f = &famState{}
					fams[name] = f
				}
				if f.typ != "" {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				if f.samples > 0 || f.closed {
					return fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
				f.typ = typ
				closeOpen("")
			default:
				continue // plain comment
			}
			continue
		}

		name, labels, rawLe, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		// Resolve histogram component samples to their base family.
		fam := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, s)
			if base != name {
				if f := fams[base]; f != nil && f.typ == TypeHistogram {
					fam, suffix = base, s
				}
				break
			}
		}
		f := fams[fam]
		if f == nil || f.typ == "" {
			return fmt.Errorf("line %d: sample for %q before its TYPE", lineNo, fam)
		}
		if f.closed {
			return fmt.Errorf("line %d: samples for %q interleaved with another family", lineNo, fam)
		}
		closeOpen(fam)
		f.samples++

		if f.typ != TypeHistogram {
			continue
		}
		switch suffix {
		case "_bucket", "_sum", "_count":
		default:
			return fmt.Errorf("line %d: histogram %q sample without _bucket/_sum/_count suffix", lineNo, fam)
		}
		series := hists[fam]
		if series == nil {
			series = make(map[string]*histSeries)
			hists[fam] = series
		}
		key := labelKey(labels)
		hs := series[key]
		if hs == nil {
			hs = &histSeries{}
			series[key] = hs
		}
		switch suffix {
		case "_bucket":
			if rawLe == "" {
				return fmt.Errorf("line %d: %s_bucket without le label", lineNo, fam)
			}
			if rawLe == "+Inf" {
				hs.hasInf = true
				hs.infVal = value
			}
			hs.les = append(hs.les, rawLe)
			hs.buckets = append(hs.buckets, value)
		case "_count":
			hs.count = value
			hs.hasCnt = true
		}
	}

	// Histogram series invariants, in deterministic order for stable
	// error messages.
	famNames := make([]string, 0, len(hists))
	for fam := range hists {
		famNames = append(famNames, fam)
	}
	sort.Strings(famNames)
	for _, fam := range famNames {
		keys := make([]string, 0, len(hists[fam]))
		for k := range hists[fam] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			hs := hists[fam][k]
			for i := 1; i < len(hs.buckets); i++ {
				if hs.buckets[i] < hs.buckets[i-1] {
					return fmt.Errorf("histogram %s{%s}: bucket le=%s count %g < preceding le=%s count %g (not cumulative)",
						fam, k, hs.les[i], hs.buckets[i], hs.les[i-1], hs.buckets[i-1])
				}
			}
			if !hs.hasInf {
				return fmt.Errorf("histogram %s{%s}: missing le=\"+Inf\" bucket", fam, k)
			}
			if hs.les[len(hs.les)-1] != "+Inf" {
				return fmt.Errorf("histogram %s{%s}: le=\"+Inf\" bucket is not last", fam, k)
			}
			if !hs.hasCnt {
				return fmt.Errorf("histogram %s{%s}: missing _count", fam, k)
			}
			if hs.infVal != hs.count {
				return fmt.Errorf("histogram %s{%s}: le=\"+Inf\" bucket %g != _count %g", fam, k, hs.infVal, hs.count)
			}
		}
	}
	return nil
}

// parseSampleLine parses `name{labels} value` (labels optional), returning
// the metric name, the non-le labels, the raw le value if present, and the
// parsed sample value.
func parseSampleLine(line string) (name string, labels []Label, rawLe string, value float64, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote, escaped := false, false
		for j := 1; j < len(rest); j++ {
			c := rest[j]
			if escaped {
				escaped = false
				continue
			}
			switch {
			case inQuote && c == '\\':
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case !inQuote && c == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, "", 0, fmt.Errorf("unterminated label block")
		}
		labels, rawLe, err = parseLabels(rest[1:end])
		if err != nil {
			return "", nil, "", 0, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimLeft(rest, " ")
	// An optional timestamp may follow the value; the emitter never writes
	// one, but accept it for completeness.
	valTok := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valTok = rest[:sp]
		ts := strings.TrimSpace(rest[sp+1:])
		if ts != "" {
			if _, terr := strconv.ParseInt(ts, 10, 64); terr != nil {
				return "", nil, "", 0, fmt.Errorf("invalid timestamp %q", ts)
			}
		}
	}
	value, err = parseSampleValue(valTok)
	if err != nil {
		return "", nil, "", 0, err
	}
	return name, labels, rawLe, value, nil
}

// parseLabels parses the inside of a {…} block, validating names and
// escapes, and splits off the le label for histogram accounting.
func parseLabels(s string) (labels []Label, rawLe string, err error) {
	i := 0
	for i < len(s) {
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i == len(s) {
			return nil, "", fmt.Errorf("label pair %q missing '='", s[start:])
		}
		lname := s[start:i]
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", lname)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label %q: trailing backslash", lname)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %q: invalid escape \\%c", lname, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, "", fmt.Errorf("label %q: unterminated value", lname)
		}
		if lname == "le" {
			rawLe = val.String()
			if _, verr := parseSampleValue(rawLe); verr != nil {
				return nil, "", fmt.Errorf("le label %q is not a float", rawLe)
			}
		} else {
			labels = append(labels, Label{Name: lname, Value: val.String()})
		}
		if i < len(s) {
			if s[i] != ',' {
				return nil, "", fmt.Errorf("unexpected %q after label %q", s[i], lname)
			}
			i++
		}
	}
	return labels, rawLe, nil
}

// parseSampleValue parses a sample value, accepting the format's special
// spellings.
func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "Nan":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid sample value %q", s)
	}
	return v, nil
}

// labelKey renders a sorted canonical key for a label set, so histogram
// series with the same labels in any order aggregate together.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || c == ':':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
