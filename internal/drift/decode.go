package drift

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxEventBatch bounds one POST /v1/monitors/{id}/events body.
const MaxEventBatch = 10000

// maxDepth is encoding/json's nesting limit: objects and arrays deeper
// than this are rejected.
const maxDepth = 10000

var errBatchTooLarge = fmt.Errorf("drift: batch exceeds limit %d", MaxEventBatch)

// DecodeEvents parses and validates an ingest batch, strictly. It accepts
// exactly the bodies that encoding/json — decoding {"events": [...]} with
// unknown fields disallowed and nothing but whitespace after the value —
// accepts, and returns the same events, in one pass over data with no
// reflection and no second copy of the body. As encoding/json does, it
// matches field names exactly or else case-folded, decodes a repeated
// field into the value the first left (a repeated "protected" merges
// into its map, a repeated "events" into its elements), leaves a field
// unset on null (nil for "protected" and "events"), rejects numbers
// outside float64's range and nesting deeper than 10000, and replaces
// invalid UTF-8 and unpaired surrogate escapes with U+FFFD. One
// difference is deliberate: it stops at the 10 001st element of an
// "events" array, so an oversized body costs no more to reject than a
// full batch — even one a later repeated "events" would have shortened.
func DecodeEvents(data []byte) ([]Event, error) {
	p := eventParser{data: data}
	events, err := p.batch()
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, errors.New("drift: empty event batch")
	}
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("drift: event %d: %w", i, err)
		}
	}
	return events, nil
}

// Field names of the batch and event objects, and their case-folded
// forms for encoding/json's fallback match.
var (
	batchFields       = []string{"events"}
	batchFieldsFolded = []string{"EVENTS"}
	eventFields       = []string{"type", "worker", "protected", "score"}
	eventFieldsFolded = []string{"TYPE", "WORKER", "PROTECTED", "SCORE"}
)

const (
	fieldType = iota
	fieldWorker
	fieldProtected
	fieldScore
)

// eventParser is a recursive-descent JSON parser specialised to the
// ingest body.
type eventParser struct {
	data  []byte
	pos   int
	depth int
	// scratch holds the last string that needed unescaping.
	scratch []byte
	// interned boxes each distinct protected attribute name and string
	// value once per body: they repeat across events, worker ids do not.
	interned map[string]any
}

func (p *eventParser) batch() ([]Event, error) {
	p.skipSpace()
	var events []Event
	switch p.peek() {
	case 'n':
		if err := p.literal("null"); err != nil {
			return nil, err
		}
	case '{':
		err := p.object(func(key []byte) error {
			if fieldIndex(key, batchFields, batchFieldsFolded) < 0 {
				return p.fail("unknown field %q", key)
			}
			switch p.peek() {
			case 'n':
				events = nil
				return p.literal("null")
			case '[':
				var err error
				events, err = p.events(events)
				return err
			}
			return p.unexpected("an array of events")
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, p.unexpected("an object")
	}
	p.skipSpace()
	if p.pos < len(p.data) {
		return nil, errors.New("drift: trailing data after events json")
	}
	return events, nil
}

// events parses an "events" array into dst the way encoding/json fills a
// slice: element i decodes into dst[i] — over whatever a previous
// "events" left there, within dst's capacity — the result is cut to the
// array's length, and an empty array yields a new empty slice.
func (p *eventParser) events(dst []Event) ([]Event, error) {
	if err := p.open(); err != nil {
		return nil, err
	}
	if p.peek() == ']' {
		p.close()
		return []Event{}, nil
	}
	for i := 0; ; i++ {
		if i == MaxEventBatch {
			return nil, errBatchTooLarge
		}
		switch {
		case i == cap(dst):
			dst = append(dst, Event{})
		case i >= len(dst):
			dst = dst[:i+1]
		}
		p.skipSpace()
		switch p.peek() {
		case '{':
			if err := p.event(&dst[i]); err != nil {
				return nil, err
			}
		case 'n':
			if err := p.literal("null"); err != nil {
				return nil, err
			}
		default:
			return nil, p.unexpected("an event object")
		}
		if done, err := p.next(']'); err != nil || done {
			return dst[:i+1], err
		}
	}
}

// event decodes one event object into e, over e's current fields.
func (p *eventParser) event(e *Event) error {
	return p.object(func(key []byte) error {
		field := fieldIndex(key, eventFields, eventFieldsFolded)
		if field < 0 {
			return p.fail("unknown field %q", key)
		}
		if p.peek() == 'n' {
			if field == fieldProtected {
				e.Protected = nil
			}
			return p.literal("null")
		}
		switch field {
		case fieldType, fieldWorker:
			if p.peek() != '"' {
				return p.unexpected("a string")
			}
			s, err := p.str()
			if err != nil {
				return err
			}
			if field == fieldWorker {
				e.Worker = string(s)
			} else {
				e.Type = eventType(s)
			}
			return nil
		case fieldProtected:
			if p.peek() != '{' {
				return p.unexpected("an object of protected attributes")
			}
			if e.Protected == nil {
				e.Protected = map[string]any{}
			}
			return p.members(e.Protected)
		}
		if c := p.peek(); c != '-' && (c < '0' || c > '9') {
			return p.unexpected("a number")
		}
		f, err := p.float()
		e.Score = f
		return err
	})
}

// eventType returns the wire type without allocating for the known ones.
func eventType(s []byte) string {
	switch string(s) {
	case EventJoin:
		return EventJoin
	case EventLeave:
		return EventLeave
	case EventRescore:
		return EventRescore
	}
	return string(s)
}

// fieldIndex returns which of names key selects, matching as
// encoding/json does: exactly, else after folding both sides; -1 if none.
func fieldIndex(key []byte, names, folded []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	var buf [32]byte
	f := appendFolded(buf[:0], key)
	for i, n := range folded {
		if string(f) == n {
			return i
		}
	}
	return -1
}

// appendFolded appends key folded for field matching: ASCII letters upper
// case, every other rune the smallest of its Unicode fold orbit (so the
// Kelvin sign matches 'k' and the long s matches 's').
func appendFolded(dst, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			f := unicode.SimpleFold(r)
			if f <= r {
				r = f
				break
			}
			r = f
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// object parses the object at p.pos, calling member for each key with
// p.pos at the key's value. key is only valid during the call.
func (p *eventParser) object(member func(key []byte) error) error {
	if err := p.open(); err != nil {
		return err
	}
	if p.peek() == '}' {
		p.close()
		return nil
	}
	for {
		p.skipSpace()
		if p.peek() != '"' {
			return p.unexpected("a string key")
		}
		key, err := p.str()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.peek() != ':' {
			return p.unexpected("':'")
		}
		p.pos++
		p.skipSpace()
		if err := member(key); err != nil {
			return err
		}
		if done, err := p.next('}'); err != nil || done {
			return err
		}
	}
}

// members decodes an object into m, over m's current entries.
func (p *eventParser) members(m map[string]any) error {
	return p.object(func(key []byte) error {
		k := p.intern(key).(string)
		v, err := p.value()
		m[k] = v
		return err
	})
}

// value decodes any JSON value as encoding/json decodes into an empty
// interface.
func (p *eventParser) value() (any, error) {
	c := p.peek()
	switch c {
	case '"':
		s, err := p.str()
		if err != nil {
			return nil, err
		}
		return p.intern(s), nil
	case '{':
		m := map[string]any{}
		return m, p.members(m)
	case '[':
		if err := p.open(); err != nil {
			return nil, err
		}
		a := make([]any, 0)
		if p.peek() == ']' {
			p.close()
			return a, nil
		}
		for {
			p.skipSpace()
			v, err := p.value()
			if err != nil {
				return nil, err
			}
			a = append(a, v)
			if done, err := p.next(']'); err != nil || done {
				return a, err
			}
		}
	case 't':
		return true, p.literal("true")
	case 'f':
		return false, p.literal("false")
	case 'n':
		return nil, p.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return nil, p.unexpected("a value")
	}
	return p.float()
}

// intern returns s as a boxed string, one per distinct value per body.
func (p *eventParser) intern(s []byte) any {
	if v, ok := p.interned[string(s)]; ok {
		return v
	}
	if p.interned == nil {
		p.interned = map[string]any{}
	}
	str := string(s)
	var v any = str
	p.interned[str] = v
	return v
}

// open consumes the '{' or '[' at p.pos and the whitespace after it.
func (p *eventParser) open() error {
	p.pos++
	if p.depth++; p.depth > maxDepth {
		return p.fail("exceeded max depth")
	}
	p.skipSpace()
	return nil
}

// close consumes the '}' or ']' at p.pos.
func (p *eventParser) close() {
	p.pos++
	p.depth--
}

// next consumes the separator after a member or element: a comma, or the
// closing byte, which reports done.
func (p *eventParser) next(closing byte) (done bool, err error) {
	p.skipSpace()
	switch p.peek() {
	case ',':
		p.pos++
		return false, nil
	case closing:
		p.close()
		return true, nil
	}
	return false, p.unexpected(fmt.Sprintf("',' or '%c'", closing))
}

func (p *eventParser) peek() byte {
	if p.pos < len(p.data) {
		return p.data[p.pos]
	}
	return 0
}

func (p *eventParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *eventParser) literal(word string) error {
	end := min(p.pos+len(word), len(p.data))
	if string(p.data[p.pos:end]) != word {
		return p.unexpected(strconv.Quote(word))
	}
	p.pos = end
	return nil
}

// float scans the number at p.pos, whose first byte is '-' or a digit,
// and converts it with encoding/json's strconv.ParseFloat.
func (p *eventParser) float() (float64, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	if p.peek() == '0' {
		p.pos++
	} else if !p.digits() {
		return 0, p.unexpected("a digit")
	}
	if p.peek() == '.' {
		p.pos++
		if !p.digits() {
			return 0, p.unexpected("a digit")
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if !p.digits() {
			return 0, p.unexpected("a digit")
		}
	}
	f, err := strconv.ParseFloat(string(p.data[start:p.pos]), 64)
	if err != nil {
		return 0, p.fail("number %s out of range", p.data[start:p.pos])
	}
	return f, nil
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (p *eventParser) digits() bool {
	start := p.pos
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > start
}

// str scans the string whose opening quote is at p.pos and returns its
// value: a subslice of data when it has no escapes and is valid UTF-8,
// else the unescaped copy in p.scratch. Valid until the next call.
func (p *eventParser) str() ([]byte, error) {
	p.pos++
	start := p.pos
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return p.data[start : p.pos-1], nil
		case c == '\\':
			return p.unescape(start)
		case c < ' ':
			return nil, p.fail("control character in string")
		case c < utf8.RuneSelf:
			p.pos++
		default:
			r, n := utf8.DecodeRune(p.data[p.pos:])
			if r == utf8.RuneError && n == 1 {
				return p.unescape(start)
			}
			p.pos += n
		}
	}
	return nil, p.fail("unterminated string")
}

// unescape continues str from p.pos, the first byte that is not copied
// verbatim, writing the value into p.scratch.
func (p *eventParser) unescape(start int) ([]byte, error) {
	b := append(p.scratch[:0], p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			p.scratch = b
			return b, nil
		case c < ' ':
			return nil, p.fail("control character in string")
		case c == '\\':
			if p.pos+1 == len(p.data) {
				return nil, p.fail("unterminated string")
			}
			e := p.data[p.pos+1]
			if i := strings.IndexByte(`"\/bfnrt`, e); i >= 0 {
				b = append(b, "\"\\/\b\f\n\r\t"[i])
				p.pos += 2
				continue
			}
			if e != 'u' {
				return nil, p.fail("invalid escape \\%c", e)
			}
			r := p.hex4(p.pos + 2)
			if r < 0 {
				return nil, p.fail("invalid \\u escape")
			}
			p.pos += 6
			if utf16.IsSurrogate(r) {
				// A valid pair takes the next escape too; anything else
				// leaves it and stands for U+FFFD.
				r2 := rune(-1)
				if p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
					r2 = p.hex4(p.pos + 2)
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					p.pos += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c < utf8.RuneSelf:
			b = append(b, c)
			p.pos++
		default:
			r, n := utf8.DecodeRune(p.data[p.pos:])
			b = utf8.AppendRune(b, r)
			p.pos += n
		}
	}
	return nil, p.fail("unterminated string")
}

// hex4 decodes the four hex digits at data[at:], or returns -1.
func (p *eventParser) hex4(at int) rune {
	if at+4 > len(p.data) {
		return -1
	}
	r, err := strconv.ParseUint(string(p.data[at:at+4]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(r)
}

func (p *eventParser) fail(format string, args ...any) error {
	return fmt.Errorf("drift: bad events json: "+format+" at offset %d", append(args, p.pos)...)
}

func (p *eventParser) unexpected(want string) error {
	if p.pos == len(p.data) {
		return p.fail("unexpected end of input, want %s", want)
	}
	return p.fail("unexpected %q, want %s", p.data[p.pos], want)
}
