package httpmw

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// batchItem is one decoded BatchRequest. Its strings are views of the
// request body (or, for a string holding an escape or a byte that is not
// ASCII, of the decoder's unquoted copy), valid until the scratch that
// holds the body is reused.
type batchItem struct {
	ip, path, tenant, solution []byte
	failed                     bool
}

// maxJSONDepth is encoding/json's nesting bound: a document may nest
// objects and arrays this deep, and no deeper.
const maxJSONDepth = 10000

// errBatchOverLimit reports a requests array with more items than the
// handler's limit.
var errBatchOverLimit = errors.New("httpmw: batch over the item limit")

// batchDecoder reads a batch document the way
// json.NewDecoder(body).Decode(&batchRequestBody{}) does, without
// reflection: the same documents decode, to the same items, and the same
// documents fail. One call scans the body once:
//
//   - whitespace may separate tokens, and only the first JSON value is
//     read; bytes after it are ignored;
//   - keys match field names as bytes.EqualFold does, after unquoting;
//   - values under unknown keys are skipped but fully checked, nesting at
//     most maxJSONDepth deep, without recursion;
//   - null leaves a field (or an item) as it was, and a repeated key
//     decodes again over the earlier value, as encoding/json's reuse of
//     the slice and its elements does;
//   - a value of the wrong type fails the document.
//
// Decoding stops with errBatchOverLimit when a "requests" array reaches
// its item limit + 1, whatever follows in the document.
type batchDecoder struct {
	data  []byte
	pos   int
	depth int
	// kinds is a bit per nesting level: set for an object, clear for an
	// array; skip reads it to tell what may follow a value.
	kinds [maxJSONDepth/64 + 1]uint64

	limit int
	// items holds every index a "requests" array reached since the last
	// reset of the slice (at most limit); the first n are the document's.
	items []batchItem
	n     int    // items of the last "requests" array
	esc   []byte // unquoted strings
}

// reset prepares d to decode data, keeping at most limit items.
func (d *batchDecoder) reset(data []byte, limit int) {
	d.data, d.pos, d.depth = data, 0, 0
	d.limit, d.n = limit, 0
	d.items, d.esc = d.items[:0], d.esc[:0]
}

// decode scans the document and returns its item count. On success the
// items are d.items[:n]; an over-limit document returns errBatchOverLimit.
func (d *batchDecoder) decode() (int, error) {
	if err := d.document(); err != nil {
		return 0, err
	}
	return d.n, nil
}

// document reads the top-level value: an object, or null for no items.
func (d *batchDecoder) document() error {
	d.ws()
	if d.pos == len(d.data) {
		return errors.New("empty body")
	}
	switch d.data[d.pos] {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeError("document")
	}
	// The value ends at its closing brace; trailing bytes are not read.
	if empty, err := d.open(true); err != nil || empty {
		return err
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if string(key) == "requests" || bytes.EqualFold(key, []byte("requests")) {
			err = d.requests()
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if more, err := d.next('}'); err != nil || !more {
			return err
		}
	}
}

// requests reads the "requests" value: an array of items, or null.
func (d *batchDecoder) requests() error {
	switch d.peek() {
	case 'n':
		// encoding/json sets the slice to nil: no items, no earlier
		// values left to reuse.
		d.n, d.items = 0, d.items[:0]
		return d.literal("null")
	case '[':
	default:
		return d.typeError("requests")
	}
	empty, err := d.open(false)
	if err != nil {
		return err
	}
	if empty {
		// encoding/json replaces the slice with a fresh empty one.
		d.n, d.items = 0, d.items[:0]
		return nil
	}
	for i := 0; ; i++ {
		if i == d.limit {
			return errBatchOverLimit
		}
		if err := d.item(d.slot(i)); err != nil {
			return err
		}
		more, err := d.next(']')
		if err != nil {
			return err
		}
		if !more {
			d.n = i + 1
			return nil
		}
	}
}

// slot returns where item i of the current array decodes. An index an
// earlier array reached holds that array's item, which encoding/json
// decodes over: within the last array's length as an element, beyond it
// as one its slice's capacity still holds. Past them the slot starts
// empty.
func (d *batchDecoder) slot(i int) *batchItem {
	if i == len(d.items) {
		d.items = append(d.items, batchItem{})
	}
	return &d.items[i]
}

// item reads one element of the requests array into it.
func (d *batchDecoder) item(it *batchItem) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeError("request")
	}
	if empty, err := d.open(true); err != nil || empty {
		return err
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		switch itemField(key) {
		case "ip":
			err = d.stringField(&it.ip, "ip")
		case "path":
			err = d.stringField(&it.path, "path")
		case "tenant":
			err = d.stringField(&it.tenant, "tenant")
		case "solution":
			err = d.stringField(&it.solution, "solution")
		case "failed":
			err = d.boolField(&it.failed)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		more, err := d.next('}')
		if err != nil || !more {
			return err
		}
	}
}

// itemFields are BatchRequest's JSON names.
var itemFields = [...]string{"ip", "path", "tenant", "solution", "failed"}

// itemField returns the BatchRequest field a decoded key names, by
// encoding/json's rule (an exact match, else one as bytes.EqualFold
// finds), or "" for an unknown key.
func itemField(key []byte) string {
	for _, name := range itemFields {
		if string(key) == name {
			return name
		}
	}
	for _, name := range itemFields {
		if bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

// stringField reads a string or null into dst.
func (d *batchDecoder) stringField(dst *[]byte, name string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		if err == nil {
			*dst = s
		}
		return err
	}
	return d.typeError(name)
}

// boolField reads true, false or null into dst.
func (d *batchDecoder) boolField(dst *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.typeError("failed")
}

// key reads an object key and the colon after it.
func (d *batchDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntaxError("looking for an object key")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	return key, d.colon()
}

// skipKey checks an object key and the colon after it.
func (d *batchDecoder) skipKey() error {
	if d.peek() != '"' {
		return d.syntaxError("looking for an object key")
	}
	if _, _, err := d.scanString(); err != nil {
		return err
	}
	return d.colon()
}

// colon reads the colon after a key, and the whitespace around it.
func (d *batchDecoder) colon() error {
	if d.ws(); d.peek() != ':' {
		return d.syntaxError("after an object key")
	}
	d.pos++
	d.ws()
	return nil
}

// next reads what follows a value in a container that closes with end: a
// comma (more is true) or end itself, which leaves the container.
func (d *batchDecoder) next(end byte) (more bool, err error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true, nil
	case end:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.syntaxError("after a value")
}

// open enters the object or array at d.pos. An empty one is left at
// once, and reports empty.
func (d *batchDecoder) open(object bool) (empty bool, err error) {
	if d.depth == maxJSONDepth {
		return false, d.syntaxError("nested too deep")
	}
	d.pos++
	bit := uint64(1) << (d.depth % 64)
	if object {
		d.kinds[d.depth/64] |= bit
	} else {
		d.kinds[d.depth/64] &^= bit
	}
	d.depth++
	if d.ws(); d.peek() == closer(object) {
		d.pos++
		d.depth--
		return true, nil
	}
	return false, nil
}

// closer returns the byte that closes an object or an array.
func closer(object bool) byte {
	if object {
		return '}'
	}
	return ']'
}

// inObject reports whether the innermost open container is an object.
func (d *batchDecoder) inObject() bool {
	l := d.depth - 1
	return d.kinds[l/64]&(1<<(l%64)) != 0
}

// skip checks one value of any type and moves past it, with an explicit
// container stack instead of recursion.
func (d *batchDecoder) skip() error {
	base := d.depth
	for {
		// A value starts here.
		switch c := d.peek(); {
		case c == '{' || c == '[':
			empty, err := d.open(c == '{')
			if err != nil {
				return err
			}
			if !empty {
				// The container's first value (after its first key) is next.
				if c == '{' {
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				continue
			}
		case c == '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if err := d.number(); err != nil {
				return err
			}
		default:
			return d.syntaxError("looking for a value")
		}
		// A value ended: close containers until one takes another value.
		for d.depth > base {
			obj := d.inObject()
			more, err := d.next(closer(obj))
			if err != nil {
				return err
			}
			if more {
				if obj {
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				break
			}
		}
		if d.depth == base {
			return nil
		}
	}
}

// str reads a string and returns its value: a view of the body when it
// holds no escape and no byte outside ASCII, else an unquoted copy.
func (d *batchDecoder) str() ([]byte, error) {
	start := d.pos + 1
	end, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if plain {
		return d.data[start:end], nil
	}
	from := len(d.esc)
	d.esc = appendUnquoted(d.esc, d.data[start:end])
	return d.esc[from:], nil
}

// scanString checks the string at d.pos and moves past it, returning the
// end of its contents and whether they are plain ASCII without escapes.
func (d *batchDecoder) scanString() (end int, plain bool, err error) {
	plain = true
	for p := d.pos + 1; p < len(d.data); {
		if strPlain[d.data[p]] {
			p++
			continue
		}
		switch c := d.data[p]; {
		case c == '"':
			d.pos = p + 1
			return p, plain, nil
		case c < 0x20:
			d.pos = p
			return 0, false, d.syntaxError("in string literal")
		case c == '\\':
			plain = false
			if p+1 == len(d.data) {
				p++
				continue
			}
			switch d.data[p+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p += 2
			case 'u':
				if p+6 > len(d.data) {
					p = len(d.data)
					continue
				}
				if hex4(d.data[p+2:p+6]) < 0 {
					d.pos = p
					return 0, false, d.syntaxError("in \\u escape")
				}
				p += 6
			default:
				d.pos = p
				return 0, false, d.syntaxError("in string escape")
			}
		default: // not ASCII
			plain = false
			p++
		}
	}
	d.pos = len(d.data)
	return 0, false, d.syntaxError("in string literal")
}

// strPlain marks the bytes a string holds as themselves: printable ASCII
// other than '"' and '\\'.
var strPlain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendUnquoted appends the value of the checked string contents s,
// with encoding/json's rules: escapes decode, a surrogate pair joins into
// one rune, and a lone surrogate or a byte that is not valid UTF-8
// becomes U+FFFD.
func appendUnquoted(b, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2 : r+6])
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2 : r+6])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
						r += 6
						rr = dec
					} else {
						rr = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number checks a JSON number at d.pos and moves past it.
func (d *batchDecoder) number() error {
	p := d.pos
	if d.data[p] == '-' {
		p++
	}
	switch {
	case p < len(d.data) && d.data[p] == '0':
		p++
	case p < len(d.data) && '1' <= d.data[p] && d.data[p] <= '9':
		p = d.digits(p)
	default:
		d.pos = p
		return d.syntaxError("in numeric literal")
	}
	if p < len(d.data) && d.data[p] == '.' {
		if q := d.digits(p + 1); q > p+1 {
			p = q
		} else {
			d.pos = q
			return d.syntaxError("after decimal point in numeric literal")
		}
	}
	if p < len(d.data) && (d.data[p] == 'e' || d.data[p] == 'E') {
		p++
		if p < len(d.data) && (d.data[p] == '+' || d.data[p] == '-') {
			p++
		}
		q := d.digits(p)
		if q == p {
			d.pos = p
			return d.syntaxError("in exponent of numeric literal")
		}
		p = q
	}
	d.pos = p
	return nil
}

// digits returns the end of the decimal digits starting at p.
func (d *batchDecoder) digits(p int) int {
	for p < len(d.data) && '0' <= d.data[p] && d.data[p] <= '9' {
		p++
	}
	return p
}

// literal checks that lit (true, false or null) is at d.pos and moves
// past it.
func (d *batchDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos == len(d.data) || d.data[d.pos] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// ws skips whitespace.
func (d *batchDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of the body (a byte no
// valid document holds outside a string).
func (d *batchDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *batchDecoder) syntaxError(context string) error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], context, d.pos)
}

func (d *batchDecoder) typeError(field string) error {
	return fmt.Errorf("wrong type for %s at offset %d", field, d.pos)
}
