// Package jsonw appends JSON to a byte slice in exactly the layout
// json.MarshalIndent(v, "", "  ") gives the same value: two-space indent,
// one member per line, "key": value, {} and [] for empty containers, and
// encoding/json's number and string forms. The simulator's canonical
// documents (core.EncodeResult, metrics.Snapshot.JSON) are written through
// it in one pass, with no reflection and no re-indenting; their tests keep
// json.MarshalIndent as the oracle for every byte.
//
// A Writer is used by calling its methods in document order: Begin/End
// pairs for containers, Key (or a *Field helper) before each object
// member's value. The error for the first unsupported value (NaN or ±Inf)
// is kept and returned by Bytes.
//
// AppendString and AppendFloat are the writer's string and number forms
// on their own, for compact JSON written without a Writer: the trace's
// event objects (one JSONL line each) are appended through them.
package jsonw

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer is an appending JSON writer. The zero value writes into a fresh
// buffer.
type Writer struct {
	buf   []byte
	depth int
	empty bool // the innermost open container has no member yet
	keyed bool // a key was just written; its value goes on the same line
	err   error
}

// New returns a writer appending to buf[:0].
func New(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// Bytes returns the document written so far and the first error met.
func (w *Writer) Bytes() ([]byte, error) { return w.buf, w.err }

// spaces holds indentation for 32 levels; deeper levels append in steps.
const spaces = "                                                                "

func (w *Writer) newline() {
	w.buf = append(w.buf, '\n')
	for n := 2 * w.depth; n > 0; n -= len(spaces) {
		w.buf = append(w.buf, spaces[:min(n, len(spaces))]...)
	}
}

// member starts a new member of the open container: a comma after the
// previous one, then a fresh indented line. At the top level it writes
// nothing.
func (w *Writer) member() {
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

// value positions the next value: after a key it follows on the key's
// line, inside an array it starts a member.
func (w *Writer) value() {
	if w.keyed {
		w.keyed = false
		return
	}
	w.member()
}

func (w *Writer) open(c byte) {
	w.value()
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container. The enclosing one, if any, now has
// at least this member, so it is not empty.
func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// BeginObject opens an object.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

// Key writes an object member's key; the next value written is its value.
func (w *Writer) Key(k string) {
	w.member()
	w.buf = AppendString(w.buf, k)
	w.buf = append(w.buf, ':', ' ')
	w.keyed = true
}

// Null writes null.
func (w *Writer) Null() {
	w.value()
	w.buf = append(w.buf, "null"...)
}

// String writes s as a JSON string.
func (w *Writer) String(s string) {
	w.value()
	w.buf = AppendString(w.buf, s)
}

// Int writes an integer.
func (w *Writer) Int(v int64) {
	w.value()
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// Uint writes an unsigned integer.
func (w *Writer) Uint(v uint64) {
	w.value()
	w.buf = strconv.AppendUint(w.buf, v, 10)
}

// Float writes a float64 as encoding/json does. NaN and ±Inf have no JSON
// form: the writer records an error, which Bytes returns.
func (w *Writer) Float(f float64) {
	w.value()
	var err error
	if w.buf, err = AppendFloat(w.buf, f); err != nil && w.err == nil {
		w.err = err
	}
}

// Floats writes a float64 slice: null when nil, [] when empty.
func (w *Writer) Floats(v []float64) {
	if v == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for _, f := range v {
		w.Float(f)
	}
	w.EndArray()
}

// Uints writes a uint64 slice: null when nil, [] when empty.
func (w *Writer) Uints(v []uint64) {
	if v == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for _, u := range v {
		w.Uint(u)
	}
	w.EndArray()
}

// StringField writes one string member.
func (w *Writer) StringField(k, v string) { w.Key(k); w.String(v) }

// IntField writes one integer member.
func (w *Writer) IntField(k string, v int) { w.Key(k); w.Int(int64(v)) }

// UintField writes one unsigned integer member.
func (w *Writer) UintField(k string, v uint64) { w.Key(k); w.Uint(v) }

// FloatField writes one float64 member.
func (w *Writer) FloatField(k string, v float64) { w.Key(k); w.Float(v) }

// AppendFloat appends f in encoding/json's form: the shortest 'f' form,
// or the 'e' form below 1e-6 and from 1e21 up with a one-digit negative
// exponent unpadded (1e-7, not 1e-07). NaN and ±Inf return an error.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("jsonw: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hex = "0123456789abcdef"

// AppendString appends s quoted as encoding/json quotes it with HTML
// escaping on: ", \ and control bytes escaped (\b \f \n \r \t by name,
// the rest as \u00XX), <, > and & as \u003c, \u003e and \u0026, U+2028
// and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
