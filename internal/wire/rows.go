package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Rows is a result matrix. Each cell is nil, int64, float64, string or
// bool, the same dynamic types maybms.Rows uses. On the wire every
// cell is a tagged object ({"i":1}, {"f":0.5}, {"s":"x"}, {"b":true},
// {"nf":"nan"} for non-finite floats) or JSON null, so int64(1) and
// float64(1) stay distinct and results survive the round trip exactly.
//
// The whole matrix is encoded into one buffer and decoded in one pass.
// The bytes are exactly those encoding/json writes for the same tagged
// objects: floats follow its number format and strings its quoting,
// HTML escapes included.
type Rows [][]interface{}

// EncodeRows checks that every cell has a supported type, so a server
// can fail before it commits a response status; the encoding itself
// happens once, when the response is marshalled. A nil matrix (an
// empty result) comes back empty, so it is written as [] rather than
// null.
func EncodeRows(rows [][]interface{}) (Rows, error) {
	if rows == nil {
		return Rows{}, nil
	}
	for _, row := range rows {
		for _, v := range row {
			switch v.(type) {
			case nil, int64, float64, string, bool:
			default:
				return nil, fmt.Errorf("wire: unsupported cell type %T", v)
			}
		}
	}
	return Rows(rows), nil
}

// MarshalJSON implements json.Marshaler.
func (r Rows) MarshalJSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	n := 2
	for _, row := range r {
		n += 3 + 12*len(row)
	}
	dst := make([]byte, 0, n)
	dst = append(dst, '[')
	for i, row := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendCell(dst, v); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// appendCell appends v's tagged encoding.
func appendCell(dst []byte, v interface{}) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case int64:
		dst = append(dst, `{"i":`...)
		dst = strconv.AppendInt(dst, v, 10)
	case float64:
		switch {
		case math.IsNaN(v):
			return append(dst, `{"nf":"nan"}`...), nil
		case math.IsInf(v, 1):
			return append(dst, `{"nf":"+inf"}`...), nil
		case math.IsInf(v, -1):
			return append(dst, `{"nf":"-inf"}`...), nil
		}
		dst = append(dst, `{"f":`...)
		dst = appendFloat(dst, v)
	case string:
		dst = append(dst, `{"s":`...)
		dst = appendString(dst, v)
	case bool:
		if v {
			return append(dst, `{"b":true}`...), nil
		}
		return append(dst, `{"b":false}`...), nil
	default:
		return dst, fmt.Errorf("wire: unsupported cell type %T", v)
	}
	return append(dst, '}'), nil
}

// appendFloat formats a finite float as encoding/json does: like
// ECMAScript, 'f' unless the magnitude calls for an exponent, and the
// exponent without zero padding.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// control bytes, quote and backslash escaped, <, > and & as \u00XX,
// U+2028 and U+2029 as \u2028 and \u2029, and every byte of
// invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSON implements json.Unmarshaler. It accepts exactly what
// MarshalJSON writes, modulo JSON whitespace and null for the matrix, a
// row or a cell: a cell object has one member, keyed i, f, s, b or nf,
// whose value has the matching JSON type. Anything else is an error.
func (r *Rows) UnmarshalJSON(data []byte) error {
	d := rowsDecoder{data: data}
	out, err := d.matrix()
	if err != nil {
		return err
	}
	*r = out
	return nil
}

// rowsDecoder parses a tagged-cell matrix. Cells go into one flat
// slice and each row is a window of it, so a matrix costs a handful of
// allocations plus one per boxed value; a row keeps its matrix's
// cells reachable.
type rowsDecoder struct {
	data  []byte
	pos   int
	cells []interface{}
	ends  []int // per row, its end in cells, or -1 for a null row
}

func (d *rowsDecoder) fail(what string) error {
	return fmt.Errorf("wire: bad cell at byte %d: %s", d.pos, what)
}

func (d *rowsDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips c if it is the next byte.
func (d *rowsDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal skips lit if the input continues with it.
func (d *rowsDecoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func (d *rowsDecoder) matrix() (Rows, error) {
	d.ws()
	if d.literal("null") {
		d.ws()
		if d.pos != len(d.data) {
			return nil, d.fail("trailing data")
		}
		return nil, nil
	}
	if !d.consume('[') {
		return nil, d.fail("expected [ or null")
	}
	d.cells = make([]interface{}, 0, len(d.data)/10+1)
	d.ws()
	if !d.consume(']') {
		for {
			if err := d.row(); err != nil {
				return nil, err
			}
			d.ws()
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return nil, d.fail("expected , or ] after row")
			}
			d.ws()
		}
	}
	d.ws()
	if d.pos != len(d.data) {
		return nil, d.fail("trailing data")
	}
	cells := d.cells
	if cap(cells) > 2*len(cells) {
		// The capacity guess assumed short cells; rows of long
		// strings must not keep its slack alive.
		cells = make([]interface{}, len(d.cells))
		copy(cells, d.cells)
	}
	out := make(Rows, len(d.ends))
	start := 0
	for i, end := range d.ends {
		if end < 0 {
			continue
		}
		out[i] = cells[start:end:end]
		start = end
	}
	return out, nil
}

func (d *rowsDecoder) row() error {
	if d.literal("null") {
		d.ends = append(d.ends, -1)
		return nil
	}
	if !d.consume('[') {
		return d.fail("expected [ or null for a row")
	}
	d.ws()
	if !d.consume(']') {
		for {
			v, err := d.cell()
			if err != nil {
				return err
			}
			d.cells = append(d.cells, v)
			d.ws()
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return d.fail("expected , or ] after cell")
			}
			d.ws()
		}
	}
	d.ends = append(d.ends, len(d.cells))
	return nil
}

// cellTags are the keys a cell object may have, with the quotes.
var cellTags = [...]string{`"i"`, `"f"`, `"s"`, `"b"`, `"nf"`}

func (d *rowsDecoder) cell() (interface{}, error) {
	if d.literal("null") {
		return nil, nil
	}
	if !d.consume('{') {
		return nil, d.fail("expected { or null for a cell")
	}
	d.ws()
	tag := ""
	for _, t := range cellTags {
		if d.literal(t) {
			tag = t
			break
		}
	}
	if tag == "" {
		return nil, d.fail(`expected one member keyed "i", "f", "s", "b" or "nf"`)
	}
	d.ws()
	if !d.consume(':') {
		return nil, d.fail("expected :")
	}
	d.ws()
	var v interface{}
	switch tag {
	case `"i"`, `"f"`:
		num, err := d.number()
		if err != nil {
			return nil, err
		}
		if tag == `"i"` {
			i, perr := strconv.ParseInt(string(num), 10, 64)
			if perr != nil {
				return nil, d.fail("int out of range or not an integer")
			}
			v = i
		} else {
			f, perr := strconv.ParseFloat(string(num), 64)
			if perr != nil {
				return nil, d.fail("float out of range")
			}
			v = f
		}
	case `"s"`, `"nf"`:
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		v = s
		if tag == `"nf"` {
			switch s {
			case "nan":
				v = math.NaN()
			case "+inf":
				v = math.Inf(1)
			case "-inf":
				v = math.Inf(-1)
			default:
				return nil, d.fail(fmt.Sprintf("bad non-finite tag %q", s))
			}
		}
	case `"b"`:
		switch {
		case d.literal("true"):
			v = true
		case d.literal("false"):
			v = false
		default:
			return nil, d.fail("expected true or false")
		}
	}
	d.ws()
	if !d.consume('}') {
		return nil, d.fail("expected } after the cell's one member")
	}
	return v, nil
}

// number returns the JSON number at the cursor. strconv alone would
// also take forms JSON forbids, such as +1, 0x1p3, Inf and 1_0.
func (d *rowsDecoder) number() ([]byte, error) {
	start := d.pos
	d.consume('-')
	switch {
	case d.consume('0'):
	case d.pos < len(d.data) && d.data[d.pos] >= '1' && d.data[d.pos] <= '9':
		d.digits()
	default:
		return nil, d.fail("expected a number")
	}
	if d.consume('.') {
		if d.digits() == 0 {
			return nil, d.fail("expected digits after .")
		}
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if d.digits() == 0 {
			return nil, d.fail("expected exponent digits")
		}
	}
	return d.data[start:d.pos], nil
}

// digits skips a run of decimal digits and returns its length.
func (d *rowsDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// str decodes the JSON string at the cursor. A string of plain ASCII
// is sliced directly; any other is decoded exactly as encoding/json
// decodes it.
func (d *rowsDecoder) str() (string, error) {
	if !d.consume('"') {
		return "", d.fail("expected a string")
	}
	start := d.pos
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return string(d.data[start:i]), nil
		case c == '\\' || c >= utf8.RuneSelf:
			return d.slowStr(start)
		case c < 0x20:
			d.pos = i
			return "", d.fail("control character in string")
		}
	}
	d.pos = len(d.data)
	return "", d.fail("unterminated string")
}

// slowStr finishes a string that holds escapes or non-ASCII bytes:
// it checks the escapes against JSON's grammar, then decodes like
// encoding/json, which turns invalid UTF-8 and unpaired surrogates
// into U+FFFD.
func (d *rowsDecoder) slowStr(start int) (string, error) {
	end := -1
	clean := true // no escapes and valid UTF-8: the bytes are the string
	for i := start; end < 0; {
		if i >= len(d.data) {
			d.pos = i
			return "", d.fail("unterminated string")
		}
		switch c := d.data[i]; {
		case c == '"':
			end = i
		case c == '\\':
			clean = false
			if i+1 >= len(d.data) {
				d.pos = i
				return "", d.fail("unterminated string")
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if getu4(d.data[i:]) < 0 {
					d.pos = i
					return "", d.fail(`bad \u escape`)
				}
				i += 6
			default:
				d.pos = i
				return "", d.fail("bad escape")
			}
		case c < 0x20:
			d.pos = i
			return "", d.fail("control character in string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				clean = false
			}
			i += size
		}
	}
	d.pos = end + 1
	s := d.data[start:end]
	if clean {
		return string(s), nil
	}
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
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
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
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
	return string(b), nil
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
