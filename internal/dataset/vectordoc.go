package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
)

// vectorDocJSON is VectorDoc without its UnmarshalJSON method: the
// reflective decode UnmarshalJSON falls back to.
type vectorDocJSON VectorDoc

// UnmarshalJSON decodes an interest row. The form SaveInstance writes,
// {"ids":[…],"vals":[…]} with plain number elements (or null for
// either array) and any JSON whitespace between tokens, is parsed
// directly with one strconv call per element. Any other input (a null
// row, escaped or case-folded keys, other key orders, unknown keys,
// non-numeric or out-of-range elements) is decoded reflectively from
// the same bytes, so the row and any error are exactly what
// encoding/json makes of it. One difference remains at the document
// level: encoding/json treats an error returned by an UnmarshalJSON
// method as final, so a type error inside a row ends the decode of
// the surrounding document there (instead of being reported after the
// rest is decoded), and its message names the enclosing MatrixDoc
// rather than VectorDoc.
//
// A decoder's DisallowUnknownFields does not reach a type that decodes
// itself, so a row with an unknown key records it for strict readers
// to check (InstanceDoc.CheckRowKeys).
func (d *VectorDoc) UnmarshalJSON(b []byte) error {
	if ids, vals, ok := parseVectorDoc(b); ok {
		d.IDs, d.Vals, d.unknownKey = ids, vals, false
		return nil
	}
	if err := json.Unmarshal(b, (*vectorDocJSON)(d)); err != nil {
		return err
	}
	// The lax decode succeeded, so a strict one can only fail on an
	// unknown key.
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var probe vectorDocJSON
	d.unknownKey = dec.Decode(&probe) != nil
	return nil
}

// CheckRowKeys reports an error if an interest row of the document
// carried a key VectorDoc has no field for. JSON readers that reject
// unknown fields (snapshots) call it after decoding.
func (d *InstanceDoc) CheckRowKeys() error {
	if d == nil {
		return nil
	}
	for _, m := range []struct {
		name string
		rows []VectorDoc
	}{{"cand_interest", d.CandInterest.Rows}, {"comp_interest", d.CompInterest.Rows}} {
		for i, r := range m.rows {
			if r.unknownKey {
				return fmt.Errorf("dataset: %s row %d has an unknown field", m.name, i)
			}
		}
	}
	return nil
}

// rowScanners keeps scanners, with their element buffers, from one
// parseVectorDoc call to the next: UnmarshalJSON parses one row per
// call, and a fresh buffer would regrow for every array.
var rowScanners = sync.Pool{New: func() any { return new(Scanner) }}

// parseVectorDoc parses the canonical row form. It reports ok only for
// input encoding/json decodes without error into the same row.
func parseVectorDoc(b []byte) (ids []int32, vals []float64, ok bool) {
	s := rowScanners.Get().(*Scanner)
	s.b, s.i = b, 0
	ids, vals, ok = s.vector()
	s.space()
	ok = ok && s.i == len(b)
	s.b = nil
	rowScanners.Put(s)
	return ids, vals, ok
}

// vector parses one row in the canonical form at the scanner.
func (s *Scanner) vector() (ids []int32, vals []float64, ok bool) {
	ok = s.Token(`{`) && s.Token(`"ids"`) && s.Token(`:`) && numbers(s, &ids, &s.ids, parseID) &&
		s.Token(`,`) && s.Token(`"vals"`) && s.Token(`:`) && numbers(s, &vals, &s.vals, parseVal) &&
		s.Token(`}`)
	return ids, vals, ok
}

// parseID and parseVal convert a number token as encoding/json does
// for an int32 and a float64 field; an error sends the row to the
// reflective decode, which reports it.
func parseID(tok []byte) (int32, error) {
	v, err := strconv.ParseInt(string(tok), 10, 32)
	return int32(v), err
}

func parseVal(tok []byte) (float64, error) { return strconv.ParseFloat(string(tok), 64) }

// numbers parses a JSON array of number tokens, or null, into *out,
// converting each with parse. The elements collect in *buf, which the
// scanner reuses from array to array, and *out gets a copy sized to
// the elements parsed: the input, which may not be valid JSON, never
// sizes an allocation.
func numbers[T any](s *Scanner, out *[]T, buf *[]T, parse func([]byte) (T, error)) bool {
	if s.Token(`null`) {
		*out = nil
		return true
	}
	if !s.Token(`[`) {
		return false
	}
	xs := (*buf)[:0]
	for more := !s.Token(`]`); more; {
		var x T
		if !value(s, &x, parse) {
			return false
		}
		xs = append(xs, x)
		if more = s.Token(`,`); !more && !s.Token(`]`) {
			return false
		}
	}
	*buf = xs
	*out = make([]T, len(xs))
	copy(*out, xs)
	return true
}

// value parses one number token into *out, converting it with parse.
func value[T any](s *Scanner, out *T, parse func([]byte) (T, error)) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	x, err := parse(tok)
	*out = x
	return err == nil
}

// Scanner reads JSON text in the form json.Marshal writes: the keys
// of each object in its type's field order, strings without escapes,
// and any JSON whitespace between tokens. Its methods consume a value
// and report true only when the bytes hold that value in that form,
// decoded as encoding/json would decode it. A false from Token leaves
// the scanner past whitespace only, so it can test for an optional
// key; after any other false the position is unspecified, and the
// caller hands the whole input to encoding/json.
type Scanner struct {
	b []byte
	i int
	// ids and vals are numbers' element buffers.
	ids  []int32
	vals []float64
}

// NewScanner returns a scanner at the start of b.
func NewScanner(b []byte) *Scanner { return &Scanner{b: b} }

// space skips JSON whitespace.
func (s *Scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// Token consumes lit, after whitespace, if it comes next.
func (s *Scanner) Token(lit string) bool {
	s.space()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// number consumes one JSON number token, after whitespace, and returns
// its bytes: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() ([]byte, bool) {
	s.space()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.i = i
	return b[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
