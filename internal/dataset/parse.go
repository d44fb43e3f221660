package dataset

import (
	"strconv"
	"unicode/utf8"

	"ses/internal/core"
)

// ParseInstanceDoc parses an instance document in one pass, when b
// holds one in the form json.Marshal writes (see Scanner) and nothing
// else but whitespace; the interest rows go through the same parser as
// VectorDoc.UnmarshalJSON. It reports ok only for input json.Unmarshal
// decodes without error into an equal document, nil and empty slices
// and each row's unknown-key flag included. For any other input it
// reports false, and the caller decodes b with encoding/json, which
// yields the document or the error.
func ParseInstanceDoc(b []byte) (*InstanceDoc, bool) {
	s := NewScanner(b)
	doc, ok := s.InstanceDoc()
	s.space()
	return doc, ok && s.i == len(b)
}

// InstanceDoc parses an instance document at the scanner: its keys in
// InstanceDoc's field order, each present (ActivityDoc's omitempty
// keys may be absent), and null or an array for every slice.
func (s *Scanner) InstanceDoc() (*InstanceDoc, bool) {
	d := new(InstanceDoc)
	ok := s.Token(`{`) &&
		s.key(`"num_users"`) && s.Int(&d.NumUsers) &&
		s.next(`"num_intervals"`) && s.Int(&d.NumIntervals) &&
		s.next(`"resources"`) && value(s, &d.Resources, parseVal) &&
		s.next(`"events"`) && list(s, &d.Events, s.event) &&
		s.next(`"competing"`) && list(s, &d.Competing, s.competing) &&
		s.next(`"cand_interest"`) && s.matrix(&d.CandInterest) &&
		s.next(`"comp_interest"`) && s.matrix(&d.CompInterest) &&
		s.next(`"activity"`) && s.activity(&d.Activity) &&
		s.Token(`}`)
	return d, ok
}

// key consumes an object key, given quoted, and its colon.
func (s *Scanner) key(k string) bool { return s.Token(k) && s.Token(`:`) }

// next consumes the comma before an object's next key, and the key.
func (s *Scanner) next(k string) bool { return s.Token(`,`) && s.key(k) }

func (s *Scanner) event(e *core.Event) bool {
	return s.Token(`{`) &&
		s.key(`"Location"`) && s.Int(&e.Location) &&
		s.next(`"Required"`) && value(s, &e.Required, parseVal) &&
		s.next(`"Name"`) && s.String(&e.Name) &&
		s.Token(`}`)
}

func (s *Scanner) competing(c *core.CompetingEvent) bool {
	return s.Token(`{`) &&
		s.key(`"Interval"`) && s.Int(&c.Interval) &&
		s.next(`"Name"`) && s.String(&c.Name) &&
		s.Token(`}`)
}

func (s *Scanner) matrix(m *MatrixDoc) bool {
	return s.Token(`{`) &&
		s.key(`"num_users"`) && s.Int(&m.NumUsers) &&
		s.next(`"rows"`) && list(s, &m.Rows, s.row) &&
		s.Token(`}`)
}

func (s *Scanner) row(r *VectorDoc) bool {
	ids, vals, ok := s.vector()
	r.IDs, r.Vals = ids, vals
	return ok
}

// activity parses an ActivityDoc: "type", then whichever of the
// omitempty keys "seed", "p" and "table" are present, in that order.
func (s *Scanner) activity(a *ActivityDoc) bool {
	if !(s.Token(`{`) && s.key(`"type"`) && s.String(&a.Type)) {
		return false
	}
	more := s.Token(`,`)
	// Each optional key, once matched, must be followed by its value.
	if more && s.Token(`"seed"`) {
		if !(s.Token(`:`) && value(s, &a.Seed, parseUint)) {
			return false
		}
		more = s.Token(`,`)
	}
	if more && s.Token(`"p"`) {
		if !(s.Token(`:`) && value(s, &a.P, parseVal)) {
			return false
		}
		more = s.Token(`,`)
	}
	if more && s.Token(`"table"`) {
		row := func(r *[]float64) bool { return numbers(s, r, &s.vals, parseVal) }
		if !(s.Token(`:`) && list(s, &a.Table, row)) {
			return false
		}
		more = s.Token(`,`)
	}
	return !more && s.Token(`}`)
}

// list parses a JSON array of the elements elem parses, or null, into
// *out. An empty array gives an empty slice, null a nil one, as in
// encoding/json.
func list[T any](s *Scanner, out *[]T, elem func(*T) bool) bool {
	if s.Token(`null`) {
		*out = nil
		return true
	}
	if !s.Token(`[`) {
		return false
	}
	xs := []T{}
	for more := !s.Token(`]`); more; {
		// elem fills the element in place: a local handed to it
		// would be moved to the heap.
		var zero T
		xs = append(xs, zero)
		if !elem(&xs[len(xs)-1]) {
			return false
		}
		if more = s.Token(`,`); !more && !s.Token(`]`) {
			return false
		}
	}
	*out = xs
	return true
}

// String parses a JSON string into *out. It takes only strings without
// escapes whose bytes are valid UTF-8, which encoding/json keeps as
// they are.
func (s *Scanner) String(out *string) bool {
	s.space()
	b, i := s.b, s.i
	if i == len(b) || b[i] != '"' {
		return false
	}
	start, ascii := i+1, true
	for i = start; i < len(b) && b[i] != '"'; i++ {
		switch c := b[i]; {
		case c < ' ' || c == '\\':
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i == len(b) || !ascii && !utf8.Valid(b[start:i]) {
		return false
	}
	*out = string(b[start:i])
	s.i = i + 1
	return true
}

// Int parses a JSON number into an int field, as encoding/json does:
// a fraction, an exponent or overflow is an error, which it leaves to
// encoding/json to report.
func (s *Scanner) Int(out *int) bool { return value(s, out, parseInt) }

func parseInt(tok []byte) (int, error) {
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err
}

func parseUint(tok []byte) (uint64, error) { return strconv.ParseUint(string(tok), 10, 64) }
