// JSON wire codec. The debuggable wire is decoded by hand straight into
// the pooled workspace the binary wire uses, and answers are appended to
// the workspace's output buffer: no reflection, no intermediate Request,
// no allocation on a warm request.
//
// The decoder is strict and driven by the request schema. It accepts
// exactly the bodies encoding/json — with DisallowUnknownFields, one
// value per body, read through a MaxBodyBytes+1 limit — decodes into a
// Request, and reads the same values from them (FuzzDecodeRequest holds
// it to that reference). Including encoding/json's less obvious rules:
//
//   - a key names a field exactly or else under Unicode simple case
//     folding ("KIND", or "kind" spelt with the Kelvin sign U+212A);
//   - a repeated key decodes over the earlier value: null leaves a number
//     or string as it was and clears a pointer or a list;
//   - a repeated list decodes over the earlier list's elements, so an
//     element object changes only the fields it names, and an element
//     past the earlier length still holds what an even earlier, longer
//     list wrote there — only an empty list or null starts afresh;
//   - integers are written without fraction or exponent ("1.0" and "1e2"
//     are refused), and numbers must parse into their Go type (1e999 and
//     2^63 are refused);
//   - strings are unescaped with invalid UTF-8 and unpaired surrogates
//     turned into U+FFFD.
//
// Anything else — another JSON type in a field, an unknown key, a syntax
// error, a second value after the first — is a 400. The response encoder
// writes the bytes json.NewEncoder(w).Encode(resp) writes.
package serve

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"contention/internal/core"
)

// jsonWire is the JSON body format, the default of POST /v1/predict.
type jsonWire struct{}

func (jsonWire) decode(body io.Reader, ws *workspace) error {
	if err := ws.readAll(body); err != nil {
		return err
	}
	return ws.decodeJSON(ws.buf)
}

func (jsonWire) appendResponse(dst []byte, resp Response) []byte {
	return AppendJSONResponse(dst, resp)
}

// jsonBodyLimit is how much of a body the JSON wire reads: one byte past
// MaxBodyBytes, so that an oversized value is cut off and refused.
const jsonBodyLimit = MaxBodyBytes + 1

// readAll reads body into ws.buf, up to jsonBodyLimit bytes.
func (ws *workspace) readAll(body io.Reader) error {
	b := ws.buf[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for len(b) < jsonBodyLimit {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):min(cap(b), jsonBodyLimit)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			ws.buf = b
			return badRequest("malformed request: %v", err)
		}
	}
	ws.buf = b
	return nil
}

// The members of the three request objects, numbered: a request's are
// fields fKind to fContenders, a contender's fCommFraction to
// fIOFraction, a data set's fN and fWords.
const (
	fKind = iota
	fDir
	fSets
	fDcomp
	fJ
	fP
	fContenders
	fCommFraction
	fMsgWords
	fIOFraction
	fN
	fWords
	numFields
)

var fieldNames = [numFields]string{
	"kind", "dir", "sets", "dcomp", "j", "p", "contenders",
	"comm_fraction", "msg_words", "io_fraction",
	"n", "words",
}

// internedValues are the kind and dir strings a valid request sends:
// decoding one of them costs no allocation.
var internedValues = []string{"comm", "comp", "to_back", "to_host", "to-back", "to-host", "host_to_back", "back_to_host"}

// jsonDecoder is one pass over a JSON request body.
type jsonDecoder struct {
	b  []byte
	i  int
	ws *workspace
	// csHigh and setsHigh count the workspace elements the lists have
	// written since the last fresh list: elements below them keep their
	// values when a repeated list reaches them again, those above are
	// zeroed first.
	csHigh, setsHigh int
	// Elements past the workspace arrays are decoded here and dropped:
	// validate refuses such a list before it reads any element.
	spareC core.Contender
	spareS core.DataSet
}

// decodeJSON decodes and validates one JSON request body.
func (ws *workspace) decodeJSON(b []byte) error {
	if len(b) > jsonBodyLimit {
		b = b[:jsonBodyLimit]
	}
	ws.form = form{}
	d := jsonDecoder{b: b, ws: ws}
	d.space()
	switch d.peek() {
	case '{':
		if err := d.object(fKind, fCommFraction, 0); err != nil {
			return err
		}
	case 'n': // null decodes to the empty request
		if err := d.null(); err != nil {
			return err
		}
	default:
		if d.i == len(b) {
			return badRequest("malformed request: empty body")
		}
		return badRequest("malformed request: body is not a JSON object")
	}
	d.space()
	if d.i != len(b) {
		return badRequest("trailing data after request body")
	}
	return ws.validate()
}

// peek returns the byte at the cursor, 0 at the end of the body (a NUL
// is no valid token start either).
func (d *jsonDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// space skips JSON whitespace.
func (d *jsonDecoder) space() {
	b, i := d.b, d.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	d.i = i
}

func (d *jsonDecoder) syntaxError(context string) error {
	if d.i >= len(d.b) {
		return badRequest("malformed request: unexpected end of JSON input")
	}
	return badRequest("malformed request: invalid character %q %s at offset %d", d.b[d.i], context, d.i)
}

func (d *jsonDecoder) typeError(field string) error {
	return badRequest("malformed request: %s: unexpected JSON value at offset %d", field, d.i)
}

// object decodes the object at the cursor, whose members are fields lo
// to hi-1; idx is the list element it fills (contenders and sets only).
func (d *jsonDecoder) object(lo, hi, idx int) error {
	d.i++ // '{'
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for an object key")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		f := matchField(key, lo, hi)
		if f < 0 {
			return badRequest("malformed request: unknown field %q", key)
		}
		d.space()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.i++
		d.space()
		if err := d.member(f, idx); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.syntaxError("after object member")
		}
	}
}

// matchField returns the field among lo to hi-1 that key names —
// exactly, or else under case folding, as encoding/json matches field
// names — or -1.
func matchField(key []byte, lo, hi int) int {
	for f := lo; f < hi; f++ {
		if string(key) == fieldNames[f] {
			return f
		}
	}
	for f := lo; f < hi; f++ {
		if bytes.EqualFold(key, []byte(fieldNames[f])) {
			return f
		}
	}
	return -1
}

// member decodes the value of field f; idx is the list element a
// contender or data-set field belongs to.
func (d *jsonDecoder) member(f, idx int) error {
	fm := &d.ws.form
	name := fieldNames[f]
	switch f {
	case fKind:
		return d.text(&fm.kind, name)
	case fDir:
		return d.text(&fm.dir, name)
	case fSets:
		return d.list(false)
	case fDcomp:
		return d.float(&fm.dcomp, &fm.hasDcomp, name)
	case fJ:
		return d.int(&fm.j, &fm.hasJ, name)
	case fP:
		return d.int(&fm.p, &fm.hasP, name)
	case fContenders:
		return d.list(true)
	case fN, fWords:
		s := &d.spareS
		if idx < MaxDataSets {
			s = &d.ws.sets[idx]
		}
		if f == fN {
			return d.int(&s.N, nil, name)
		}
		return d.int(&s.Words, nil, name)
	}
	c := &d.spareC
	if idx < MaxContenders {
		c = &d.ws.cs[idx]
	}
	switch f {
	case fCommFraction:
		return d.float(&c.CommFraction, nil, name)
	case fMsgWords:
		return d.int(&c.MsgWords, nil, name)
	default: // fIOFraction
		return d.float(&c.IOFraction, nil, name)
	}
}

// list decodes the contender or the data-set list — element objects, or
// null — into its workspace array.
func (d *jsonDecoder) list(contenders bool) error {
	field, lo, hi, n, high, kept := "sets", fN, numFields, &d.ws.form.nSets, &d.setsHigh, MaxDataSets
	if contenders {
		field, lo, hi, n, high, kept = "contenders", fCommFraction, fN, &d.ws.form.nCs, &d.csHigh, MaxContenders
	}
	switch d.peek() {
	case 'n':
		*n, *high = 0, 0
		return d.null()
	case '[':
	default:
		return d.typeError(field)
	}
	d.i++
	d.space()
	i := 0
	for more := d.peek() != ']'; more; i++ {
		if i >= *high && i < kept {
			if contenders {
				d.ws.cs[i] = core.Contender{}
			} else {
				d.ws.sets[i] = core.DataSet{}
			}
			*high = i + 1
		}
		switch d.peek() {
		case '{':
			if err := d.object(lo, hi, i); err != nil {
				return err
			}
		case 'n': // a null element keeps what its slot holds
			if err := d.null(); err != nil {
				return err
			}
		default:
			return d.typeError(field)
		}
		d.space()
		switch d.peek() {
		case ',': // another element must follow
			d.i++
			d.space()
		case ']':
			more = false
		default:
			return d.syntaxError("after list element")
		}
	}
	d.i++ // ']'
	*n = i
	if i == 0 {
		*high = 0
	}
	return nil
}

// text decodes a string, or null, into *dst.
func (d *jsonDecoder) text(dst *string, field string) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
		s, err := d.string()
		if err != nil {
			return err
		}
		*dst = intern(s)
		return nil
	}
	return d.typeError(field)
}

// intern returns s as a string without allocating for internedValues.
func intern(s []byte) string {
	for _, v := range internedValues {
		if string(s) == v {
			return v
		}
	}
	return string(s)
}

// float decodes a number, or null, into *dst. A pointer field passes
// has, which null clears and a number sets; a plain field passes nil,
// and null leaves it as it was.
func (d *jsonDecoder) float(dst *float64, has *bool, field string) error {
	if d.peek() == 'n' {
		if has != nil {
			*has = false
		}
		return d.null()
	}
	lit, err := d.number(field)
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return badRequest("malformed request: %s: number %s out of range", field, lit)
	}
	*dst = v
	if has != nil {
		*has = true
	}
	return nil
}

// int is float for an integer field.
func (d *jsonDecoder) int(dst *int, has *bool, field string) error {
	if d.peek() == 'n' {
		if has != nil {
			*has = false
		}
		return d.null()
	}
	lit, err := d.number(field)
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(string(lit))
	if err != nil {
		return badRequest("malformed request: %s: number %s is not an integer in range", field, lit)
	}
	*dst = v
	if has != nil {
		*has = true
	}
	return nil
}

// null consumes the literal null.
func (d *jsonDecoder) null() error {
	if len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return nil
	}
	return badRequest("malformed request: invalid literal at offset %d", d.i)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans the JSON number at the cursor and returns its text; any
// other value is a type error for field.
func (d *jsonDecoder) number(field string) ([]byte, error) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	} else if !isDigit(d.peek()) {
		return nil, d.typeError(field)
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		d.i = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			d.i = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.i = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	start := d.i
	d.i = i
	return b[start:i], nil
}

// plainByte marks the bytes a string holds as they are: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// string scans the JSON string at the cursor and returns its unescaped
// bytes: a slice of the body when nothing needs unescaping, else of
// ws.str, valid until the next call.
func (d *jsonDecoder) string() ([]byte, error) {
	b := d.b
	start := d.i + 1
	i := start
	for i < len(b) && plainByte[b[i]] {
		i++
	}
	switch {
	case i == len(b):
		d.i = i
		return nil, d.syntaxError("in string literal")
	case b[i] == '"':
		d.i = i + 1
		return b[start:i], nil
	}
	return d.unquote(start, i)
}

// unquote is string's slow path from b[i], the first byte that is not
// plain printable ASCII, with encoding/json's unescaping rules.
func (d *jsonDecoder) unquote(start, i int) ([]byte, error) {
	b := d.b
	out := append(d.ws.str[:0], b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			d.ws.str = out
			return out, nil
		case c < ' ':
			d.i = i
			return nil, d.syntaxError("in string literal")
		case c == '\\':
			if i+1 >= len(b) {
				d.i = len(b)
				return nil, d.syntaxError("in string escape code")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
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
				r := hex4(b[i:])
				if r < 0 {
					d.i = i
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(b[i:])); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.i = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.i = len(b)
	return nil, d.syntaxError("in string literal")
}

// hex4 reads the escape \uXXXX at the start of s, -1 if s does not start
// with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
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
		r = r<<4 | rune(c)
	}
	return r
}

// AppendJSONResponse appends resp as json.NewEncoder(w).Encode(resp)
// writes it, trailing newline included. encoding/json refuses NaN and
// ±Inf and then writes nothing; so does this.
func AppendJSONResponse(dst []byte, resp Response) []byte {
	if math.IsNaN(resp.Value) || math.IsInf(resp.Value, 0) {
		return dst
	}
	dst = append(dst, `{"value":`...)
	dst = appendJSONFloat(dst, resp.Value)
	if resp.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if resp.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, resp.Reason)
	}
	if resp.Batch != 0 {
		dst = append(dst, `,"batch":`...)
		dst = strconv.AppendInt(dst, int64(resp.Batch), 10)
	}
	if resp.Fast {
		dst = append(dst, `,"fast":true`...)
	}
	return append(dst, "}\n"...)
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation, in exponent form below 1e-6 and from 1e21,
// with a one-digit negative exponent unpadded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// <, > and & as \u00XX, control bytes as short or \u00XX escapes, invalid
// UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
