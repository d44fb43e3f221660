package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// vectorDocJSON is VectorDoc without its UnmarshalJSON method: the
// reflective decode UnmarshalJSON falls back to.
type vectorDocJSON VectorDoc

// UnmarshalJSON decodes an interest row. The form SaveInstance writes,
// {"ids":[…],"vals":[…]} with plain number elements and any JSON
// whitespace between tokens, is parsed directly with one strconv call
// per element. Any other input (null, escaped or case-folded keys,
// other key orders, unknown keys, non-numeric or out-of-range
// elements) is decoded reflectively from the same bytes, so the row
// and any error are exactly what encoding/json makes of it. One
// difference remains at the document level: encoding/json treats an
// error returned by an UnmarshalJSON method as final, so a type error
// inside a row ends the decode of the surrounding document there
// (instead of being reported after the rest is decoded), and its
// message names the enclosing MatrixDoc rather than VectorDoc.
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

// parseVectorDoc parses the canonical row form. It reports ok only for
// input encoding/json decodes without error into the same row.
func parseVectorDoc(b []byte) (ids []int32, vals []float64, ok bool) {
	s := rowScanner{b: b}
	ok = s.token(`{`) && s.token(`"ids"`) && s.token(`:`) && numbers(&s, &ids, parseID) &&
		s.token(`,`) && s.token(`"vals"`) && s.token(`:`) && numbers(&s, &vals, parseVal) &&
		s.token(`}`)
	s.space()
	return ids, vals, ok && s.i == len(b)
}

// parseID and parseVal convert a number token as encoding/json does
// for an int32 and a float64 field; an error sends the row to the
// reflective decode, which reports it.
func parseID(tok []byte) (int32, error) {
	v, err := strconv.ParseInt(string(tok), 10, 32)
	return int32(v), err
}

func parseVal(tok []byte) (float64, error) { return strconv.ParseFloat(string(tok), 64) }

// numbers parses a JSON array of number tokens into *out, converting
// each with parse. The slice is sized to the array up front.
func numbers[T any](s *rowScanner, out *[]T, parse func([]byte) (T, error)) bool {
	if !s.token(`[`) {
		return false
	}
	xs := make([]T, 0, s.elems())
	for more := !s.token(`]`); more; {
		tok, ok := s.number()
		if !ok {
			return false
		}
		x, err := parse(tok)
		if err != nil {
			return false
		}
		xs = append(xs, x)
		if more = s.token(`,`); !more && !s.token(`]`) {
			return false
		}
	}
	*out = xs
	return true
}

// rowScanner walks the bytes of one row.
type rowScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *rowScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token consumes lit, after whitespace, if it comes next.
func (s *rowScanner) token(lit string) bool {
	s.space()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// elems counts the elements of the array that starts at the scanner,
// for sizing: numbers hold no commas or brackets, so it is the number
// of commas before the next ']', plus one.
func (s *rowScanner) elems() int {
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// number consumes one JSON number token, after whitespace, and returns
// its bytes: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *rowScanner) number() ([]byte, bool) {
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
