package serve

// decode.go is the request-body decoder of the snapshot endpoints: one
// validating pass over the JSON bytes straight into SnapshotPayload and
// IngestRequest, with the snapshots of a batch decoded in parallel. It keeps
// encoding/json's semantics (see decode_test.go, whose fuzz target checks
// it against encoding/json), apart from rejecting null elements.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"lia/internal/par"
)

// maxDepth is encoding/json's nesting limit, kept so that both reject the
// same bodies.
const maxDepth = 10000

// errNull marks a null in place of a snapshot or of one of its numbers.
// encoding/json would decode it as a zero snapshot or as 0, a fabricated
// loss-free path ("y") or a near-total loss ("frac"), so it is rejected.
var errNull = errors.New("null element")

// field is a payload key.
type field int

const (
	unknown field = iota
	fieldY
	fieldFrac
	fieldProbes
	fieldSnapshots
)

// keys are the payload keys by field. encoding/json matches keys
// case-insensitively, as bytes.EqualFold does, so "Y" and "probeſ" (long s)
// name fields too.
var keys = [...][]byte{
	fieldY:         []byte("y"),
	fieldFrac:      []byte("frac"),
	fieldProbes:    []byte("probes"),
	fieldSnapshots: []byte("snapshots"),
}

// UnmarshalJSON decodes one snapshot object. Keys absent from it leave
// their fields as they are.
func (p *SnapshotPayload) UnmarshalJSON(b []byte) error {
	return decode(b, p, nil)
}

// UnmarshalJSON decodes one ingest request. It is defined here, and not
// promoted from the embedded SnapshotPayload, so that "snapshots" decodes.
func (r *IngestRequest) UnmarshalJSON(b []byte) error {
	return decode(b, &r.SnapshotPayload, &r.Snapshots)
}

// bodyStart is the most a unary body's buffer reserves before any byte of
// the body has arrived.
const bodyStart = 64 << 10

// decodeBody reads a unary request's body whole and decodes it into v.
// The buffer reserves the declared Content-Length only as the body
// arrives: it starts at bodyStart at most and, each time it fills, grows
// sixteenfold up to the declared length. A client that declares a long
// body and sends a short one holds 64 KiB, or sixteen times what it sent
// if that is more, and a declared body of up to 1 MiB costs one copy of
// 64 KiB.
func decodeBody(r *http.Request, v interface{ UnmarshalJSON([]byte) error }) error {
	buf := make([]byte, 0, min(max(r.ContentLength, 0), bodyStart)+bytes.MinRead)
	for {
		if len(buf) == cap(buf) {
			n := int64(len(buf))
			grown := make([]byte, n, max(min(16*n, r.ContentLength+bytes.MinRead), 2*n))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return v.UnmarshalJSON(buf)
		}
		if err != nil {
			return err
		}
	}
}

// decode decodes body, one JSON value and nothing after it but whitespace,
// into p, and the "snapshots" key into *snaps when snaps is non-nil. A null
// body leaves both as they are, as encoding/json does.
func decode(body []byte, p *SnapshotPayload, snaps *[]SnapshotPayload) error {
	d := decoder{buf: body}
	d.ws()
	switch d.peek() {
	case '{':
		if err := d.object(p, snaps); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.mismatch("the request")
	}
	d.ws()
	if d.off < len(d.buf) {
		return d.fail("after top-level value")
	}
	return nil
}

// decoder is a cursor over a JSON body.
type decoder struct {
	buf   []byte
	off   int
	depth int // open objects and arrays around off
	// hint is the length of the last number array decoded, the capacity
	// the next one starts with (the paths of one topology come in
	// same-length vectors), up to what the bytes left can hold.
	hint int
}

// errAt reports a malformed body at byte offset off.
func errAt(off int, format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", off, fmt.Sprintf(format, args...))
}

// fail reports the byte at d.off as unexpected in the given context.
func (d *decoder) fail(context string) error {
	if d.off >= len(d.buf) {
		return errAt(d.off, "unexpected end of JSON input")
	}
	return errAt(d.off, "invalid character %q %s", d.buf[d.off], context)
}

// mismatch reports a value of the wrong kind for dst, or the byte at d.off
// when it starts no value at all.
func (d *decoder) mismatch(dst string) error {
	var kind string
	switch c := d.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return d.fail("looking for beginning of value")
	}
	return errAt(d.off, "cannot decode %s into %s", kind, dst)
}

// peek returns the byte at d.off, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.off < len(d.buf) {
		return d.buf[d.off]
	}
	return 0
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.off < len(d.buf) {
		switch d.buf[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// open steps into the object or array whose bracket is at d.off.
func (d *decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return errAt(d.off, "exceeded max depth")
	}
	d.off++
	return nil
}

// more steps over the whitespace and the separator after a member or an
// element; it reports whether another follows before the closing bracket.
func (d *decoder) more(closing byte) (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		d.ws()
		return true, nil
	case closing:
		d.off++
		d.depth--
		return false, nil
	}
	if closing == '}' {
		return false, d.fail("after object key:value pair")
	}
	return false, d.fail("after array element")
}

// empty steps over the whitespace after an opening bracket, and over the
// closing one if the object or array is empty.
func (d *decoder) empty(closing byte) bool {
	d.ws()
	if d.peek() == closing {
		d.off++
		d.depth--
		return true
	}
	return false
}

// literal steps over the literal word at d.off.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.fail("in literal " + word)
		}
		d.off++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number steps over the JSON number at d.off and returns its text.
func (d *decoder) number() ([]byte, error) {
	b, start := d.buf, d.off
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.off = i
		return nil, d.fail("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			d.off = i
			return nil, d.fail("after decimal point in numeric literal")
		}
		i = digits(b, i+1)
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			d.off = i
			return nil, d.fail("in exponent of numeric literal")
		}
		i = digits(b, i+1)
	}
	d.off = i
	return b[start:i], nil
}

// digits returns the offset of the first byte at or after i in b that is
// not a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// text views b as a string for strconv, which keeps no reference to it
// (its errors copy the input).
func text(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// str steps over the string at d.off and returns its raw contents, and
// whether they hold escapes. Like encoding/json, it accepts invalid UTF-8.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	start := d.off + 1
	for d.off = start; d.off < len(d.buf); {
		switch c := d.buf[d.off]; {
		case c == '"':
			d.off++
			return d.buf[start : d.off-1], escaped, nil
		case c == '\\':
			escaped = true
			d.off++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if c := d.peek(); !isDigit(c) && !('a' <= c|0x20 && c|0x20 <= 'f') {
						return nil, false, d.fail(`in \u hexadecimal character escape`)
					}
					d.off++
				}
			default:
				return nil, false, d.fail("in string escape code")
			}
		case c < 0x20:
			return nil, false, d.fail("in string literal")
		default:
			d.off++
		}
	}
	return nil, false, d.fail("in string literal")
}

// key decodes the object key at d.off and returns the field it names.
func (d *decoder) key() (field, error) {
	if d.peek() != '"' {
		return unknown, d.fail("looking for beginning of object key string")
	}
	k, escaped, err := d.str()
	if err != nil {
		return unknown, err
	}
	if escaped {
		k = unescape(k)
	}
	for f := fieldY; f <= fieldSnapshots; f++ {
		if bytes.EqualFold(k, keys[f]) {
			return f, nil
		}
	}
	return unknown, nil
}

// unescape decodes the escapes of a validated key. A key with a UTF-16
// surrogate escape decodes to nil: whatever the surrogate becomes, it
// cannot fold to a payload key.
func unescape(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			out = append(out, raw[i])
			continue
		}
		i++
		switch raw[i] {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, _ := strconv.ParseUint(text(raw[i+1:i+5]), 16, 32)
			if utf16.IsSurrogate(rune(r)) {
				return nil
			}
			out = utf8.AppendRune(out, rune(r))
			i += 4
		default: // '"', '\\', '/'
			out = append(out, raw[i])
		}
	}
	return out
}

// object decodes the object at d.off into p, and "snapshots" into *snaps
// when snaps is non-nil; with p nil it only validates the object. Members
// merge as encoding/json's do: a key absent from the object leaves its
// field as it is, and a repeated key decodes again over the first.
func (d *decoder) object(p *SnapshotPayload, snaps *[]SnapshotPayload) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.empty('}') {
		return nil
	}
	for more := true; more; {
		f, err := d.key()
		if err != nil {
			return err
		}
		if p == nil || f == fieldSnapshots && snaps == nil {
			f = unknown
		}
		d.ws()
		if d.peek() != ':' {
			return d.fail("after object key")
		}
		d.off++
		d.ws()
		switch f {
		case fieldY:
			err = d.numbers(&p.Y, "y")
		case fieldFrac:
			err = d.numbers(&p.Frac, "frac")
		case fieldProbes:
			err = d.probes(&p.Probes)
		case fieldSnapshots:
			err = d.snapshots(snaps)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if more, err = d.more('}'); err != nil {
			return err
		}
	}
	return nil
}

// numbers decodes a "y" or "frac" value: null clears the slice, an array
// of numbers replaces it. Each number goes through strconv.ParseFloat, as
// in encoding/json, so the two agree bit for bit.
func (d *decoder) numbers(dst *[]float64, name string) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch(fmt.Sprintf("%q", name))
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.empty(']') {
		*dst = []float64{}
		return nil
	}
	// A number and its comma take two bytes at least, so a body cannot
	// make an array reserve more than four times the bytes left in it.
	out := make([]float64, 0, min(d.hint, (len(d.buf)-d.off)/2))
	for more := true; more; {
		switch c := d.peek(); {
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			return fmt.Errorf("%s[%d]: %w", name, len(out), errNull)
		case c != '-' && !isDigit(c):
			return d.mismatch(fmt.Sprintf("%s[%d]", name, len(out)))
		}
		start := d.off
		s, err := d.number()
		if err != nil {
			return err
		}
		x, err := strconv.ParseFloat(text(s), 64)
		if err != nil {
			return errAt(start, "%s[%d]: number %s out of range", name, len(out), s)
		}
		out = append(out, x)
		if more, err = d.more(']'); err != nil {
			return err
		}
	}
	*dst, d.hint = out, len(out)
	return nil
}

// probes decodes a "probes" value; null leaves it as it is.
func (d *decoder) probes(dst *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && !isDigit(c):
		return d.mismatch(`"probes"`)
	}
	start := d.off
	s, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(text(s), 10, 0)
	if err != nil {
		return errAt(start, `"probes": number %s is not an int`, s)
	}
	*dst = int(n)
	return nil
}

// snapshots decodes a "snapshots" value into *dst: null clears it, an
// array decodes element i over (*dst)[i], as encoding/json does, so a
// repeated key merges into the elements the first one decoded. A scan
// that only matches brackets delimits the elements, which are then
// decoded in parallel, one item per snapshot; the lowest failing index
// is the one reported.
func (d *decoder) snapshots(dst *[]SnapshotPayload) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch(`"snapshots"`)
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.empty(']') {
		*dst = []SnapshotPayload{}
		return nil
	}
	depth := d.depth
	type span struct{ start, end int }
	var spans []span
	var scanErr error
	for more := true; more; {
		start, end := d.off, d.objectEnd()
		if end < 0 {
			// The element decoder reports what is wrong from here on.
			spans = append(spans, span{start, len(d.buf)})
			scanErr = d.fail("in snapshot")
			break
		}
		spans = append(spans, span{start, end})
		d.off = end
		if more, scanErr = d.more(']'); scanErr != nil {
			break
		}
	}

	// Elements below cap(*dst) keep what an earlier "snapshots" decoded
	// into them; encoding/json grows the slice in place the same way.
	s := *dst
	if len(spans) <= cap(s) {
		s = s[:len(spans)]
	} else {
		s = make([]SnapshotPayload, len(spans))
		copy(s, (*dst)[:cap(*dst)])
	}
	*dst = s
	errs := make([]error, len(spans))
	workers := make([]decoder, runtime.GOMAXPROCS(0))
	par.Do(len(workers), len(spans), func(w, i int) {
		e := &workers[w]
		*e = decoder{buf: d.buf[:spans[i].end], off: spans[i].start, depth: depth, hint: e.hint}
		errs[i] = e.element(&s[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("snapshot %d: %w", i, err)
		}
	}
	return scanErr
}

// objectEnd returns the offset just past the object that opens at d.off,
// matching brackets and stepping over strings without validating either,
// or -1 if there is no object at d.off or the body ends inside it. It skips
// eight bytes at a time while none of them can be a bracket or a quote,
// which covers the runs of numbers a snapshot is made of.
func (d *decoder) objectEnd() int {
	b := d.buf
	if d.off >= len(b) || b[d.off] != '{' {
		return -1
	}
	open := 0
	for i := d.off; i < len(b); i++ {
		for i+8 <= len(b) && !mayBeStructural(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		if i == len(b) {
			break
		}
		switch b[i] {
		case '{', '[':
			open++
		case '}', ']':
			if open--; open == 0 {
				return i + 1
			}
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		}
	}
	return -1
}

// mayBeStructural reports whether any of the eight bytes packed in w may be
// a bracket or a quote. Brackets are the bytes b with b&0xd9 == 0x59 (which
// also admits 'Y', '_', 'y' and DEL), and some byte of x is zero iff
// (x-0x0101…)&^x has a high bit set. False positives cost only a byte-wise
// look.
func mayBeStructural(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	bracket := w&(0xd9*ones) ^ 0x59*ones
	quote := w ^ '"'*ones
	return ((bracket-ones)&^bracket|(quote-ones)&^quote)&highs != 0
}

// element decodes one element of "snapshots", which fills d.buf from d.off.
func (d *decoder) element(p *SnapshotPayload) error {
	switch d.peek() {
	case '{':
		if err := d.object(p, nil); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		return errNull
	default:
		return d.mismatch("a snapshot")
	}
	if d.off < len(d.buf) {
		return d.fail("after snapshot")
	}
	return nil
}

// skip validates and steps over one value of any kind: the value of a key
// the payloads do not have.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil, nil)
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		if d.empty(']') {
			return nil
		}
		for more := true; more; {
			if err := d.skip(); err != nil {
				return err
			}
			var err error
			if more, err = d.more(']'); err != nil {
				return err
			}
		}
		return nil
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.fail("looking for beginning of value")
}
