// Package snap is the versioned snapshot codec for scheduling
// sessions: it turns a session.State into portable bytes and back, so
// sessions can be persisted, shipped between processes, and reloaded
// warm.
//
// Two encodings share one wire document (Snapshot):
//
//   - JSON (EncodeJSON/DecodeJSON) — the wire format served and
//     accepted by cmd/sesd; human-inspectable.
//   - binary (AppendBinary/EncodeBinary, ParseBinary/DecodeBinary) —
//     the compact at-rest format of WAL records and checkpoints.
//
// # Binary layout
//
// A binary snapshot is the magic "SESSNAP", one header byte, then the
// payload. The header byte is 0x80 | the document version, so 0x82
// for every snapshot this build writes. The payload holds the
// Snapshot fields in declaration order: integers as varints (zig-zag
// for signed values, plain for counts and the σ seed), floats as the
// 8 little-endian bytes of their IEEE bits, strings as a length and
// their bytes, lists as a count and their elements, and the instance
// behind a presence byte. Each interest matrix is a CSR
// (compressed sparse row) triplet: the row and entry counts, rows+1
// int64 row offsets, then every id as an int32 and every value as a
// float64, all fixed little-endian; the σ table uses the same offsets
// over float64 values. The decoder checks every count against the
// bytes left before it allocates, reads each matrix into one ids and
// one values slice, and returns nothing that shares memory with its
// input.
//
// A header byte below 0x80 is a gob payload of that version, the
// binary form of earlier builds. Gob is read-only: such snapshots
// still decode, so old logs and checkpoints recover, but nothing
// writes them. Those builds refuse the 0x80 header byte with
// ErrVersion rather than misread it.
//
// # Version policy
//
// Every snapshot carries the format version (the Version constant,
// also the low seven bits of the binary header byte). The policy: any
// change that an existing decoder would misread — removed or re-typed
// fields, changed semantics, changed canonical ordering — bumps the
// version; decoders accept exactly the versions they know and reject
// everything else up front with ErrVersion, never by guessing. Purely
// additive fields may keep the version only if the zero value
// reproduces the old behavior; the JSON decoder still rejects unknown
// fields (strictness beats silent drift — an unknown field in an
// accepted version means corruption or a writer newer than the
// reader, and both must surface). A new binary payload layout for the
// same document keeps the version and takes a new header byte.
//
// Version history:
//
//   - 1 — the initial format: instance, constraints, schedule,
//     counters. Still read; restores with the omega objective.
//   - 2 (current) — adds the mandatory "objective" field (the
//     session's objective spec, see choice.ParseObjective). A new
//     version rather than an additive field because a version-1
//     reader handed a non-omega snapshot would silently restore the
//     session under the wrong objective — exactly the misread the
//     policy exists to prevent. Writers always emit version 2; a
//     document claiming version 1 while carrying an objective is
//     rejected as corrupt.
//   - Binary header bytes 0x81 and 0x82 — the hand-written payload
//     above replaces gob for versions 1 and 2. The JSON format and
//     its bytes are unchanged; header bytes 1 and 2 (gob) are still
//     read.
//
// Both encoders are canonical: a decoded snapshot re-encodes to
// byte-identical output, and restore(snapshot(s)) is the identity on
// session state. The fuzz suite enforces both properties.
package snap

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/session"
	"ses/internal/solver"
)

// Version is the current snapshot format version.
const Version = 2

// versionOmegaOnly is the pre-objective-layer format, still accepted
// by the decoders; it restores with the omega objective.
const versionOmegaOnly = 1

// knownVersion reports whether this build's decoders read v.
func knownVersion(v int) bool { return v == Version || v == versionOmegaOnly }

// magic prefixes binary snapshots; the header byte after it names
// the version and the payload layout.
const magic = "SESSNAP"

// ErrVersion reports a snapshot whose version this decoder does not
// know.
var ErrVersion = errors.New("snap: unsupported snapshot version")

// Assign is one (event, interval) pair on the wire.
type Assign struct {
	E int `json:"e"`
	T int `json:"t"`
}

// Counters mirrors solver.Counters with wire-stable lowercase names.
type Counters struct {
	InitialScores int `json:"initial_scores"`
	ScoreUpdates  int `json:"score_updates"`
	Pops          int `json:"pops"`
	ListScans     int `json:"list_scans"`
	Moves         int `json:"moves"`
}

// Snapshot is the wire document of one session: instance, constraints
// and committed schedule, plus the format version.
type Snapshot struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	K       int    `json:"k"`
	// Objective is the session's objective spec (always written since
	// version 2; "" only in version-1 documents, meaning omega).
	Objective string               `json:"objective,omitempty"`
	Instance  *dataset.InstanceDoc `json:"instance"`
	Cancelled []int                `json:"cancelled,omitempty"`
	Pins      []Assign             `json:"pins,omitempty"`
	Forbidden []Assign             `json:"forbidden,omitempty"`
	Schedule  []Assign             `json:"schedule,omitempty"`
	Utility   float64              `json:"utility"`
	Counters  Counters             `json:"counters"`
}

// FromState builds a snapshot document from a session state (as
// produced by Scheduler.ExportState). The name tags the snapshot for
// store-level restore; it may be empty.
func FromState(name string, st *session.State) (*Snapshot, error) {
	if st == nil || st.Inst == nil {
		return nil, errors.New("snap: nil state")
	}
	doc, err := dataset.NewInstanceDoc(st.Inst)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return &Snapshot{
		Version:   Version,
		Name:      name,
		K:         st.K,
		Objective: st.Objective,
		Instance:  doc,
		Cancelled: append([]int(nil), st.Cancelled...),
		Pins:      toAssigns(st.Pins),
		Forbidden: toAssigns(st.Forbidden),
		Schedule:  toAssigns(st.Schedule),
		Utility:   st.Utility,
		Counters: Counters{
			InitialScores: st.Totals.InitialScores,
			ScoreUpdates:  st.Totals.ScoreUpdates,
			Pops:          st.Totals.Pops,
			ListScans:     st.Totals.ListScans,
			Moves:         st.Totals.Moves,
		},
	}, nil
}

// State reconstructs the session state the snapshot describes. The
// instance is decoded and validated here; the remaining constraint and
// schedule validation happens in session.FromState, which a restore
// always goes through.
func (s *Snapshot) State() (*session.State, error) {
	if !knownVersion(s.Version) {
		return nil, fmt.Errorf("%w: %d (this build reads %d and %d)", ErrVersion, s.Version, versionOmegaOnly, Version)
	}
	if s.Version == versionOmegaOnly && s.Objective != "" {
		return nil, fmt.Errorf("snap: version %d snapshot carries an objective %q (corrupt or mislabeled)", versionOmegaOnly, s.Objective)
	}
	if s.Version == Version && s.Objective == "" {
		// The field is mandatory since version 2; defaulting a missing
		// one to omega would be exactly the silent misread the version
		// bump exists to prevent.
		return nil, fmt.Errorf("snap: version %d snapshot is missing its objective", Version)
	}
	if s.Instance == nil {
		return nil, errors.New("snap: snapshot has no instance")
	}
	inst, err := s.Instance.Instance()
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return &session.State{
		K:         s.K,
		Objective: s.Objective,
		Inst:      inst,
		Cancelled: append([]int(nil), s.Cancelled...),
		Pins:      toAssignments(s.Pins),
		Forbidden: toAssignments(s.Forbidden),
		Schedule:  toAssignments(s.Schedule),
		Utility:   s.Utility,
		Totals: solver.Counters{
			InitialScores: s.Counters.InitialScores,
			ScoreUpdates:  s.Counters.ScoreUpdates,
			Pops:          s.Counters.Pops,
			ListScans:     s.Counters.ListScans,
			Moves:         s.Counters.Moves,
		},
	}, nil
}

func toAssigns(as []core.Assignment) []Assign {
	if len(as) == 0 {
		return nil
	}
	out := make([]Assign, len(as))
	for i, a := range as {
		out[i] = Assign{E: a.Event, T: a.Interval}
	}
	return out
}

func toAssignments(as []Assign) []core.Assignment {
	if len(as) == 0 {
		return nil
	}
	out := make([]core.Assignment, len(as))
	for i, a := range as {
		out[i] = core.Assignment{Event: a.E, Interval: a.T}
	}
	return out
}

// EncodeJSON writes the snapshot as one JSON document followed by a
// newline. Field order is fixed and slices are emitted as stored, so
// snapshots built by FromState (whose inputs are canonical by the
// session.State contract) encode deterministically.
func EncodeJSON(w io.Writer, s *Snapshot) error {
	return json.NewEncoder(w).Encode(s)
}

// DecodeJSON reads one JSON snapshot. Unknown fields and unknown
// versions are errors; see the package version policy. Interest rows
// decode themselves, so their unknown fields are checked separately.
func DecodeJSON(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("snap: decoding snapshot: %w", err)
	}
	if err := s.Instance.CheckRowKeys(); err != nil {
		return nil, fmt.Errorf("snap: decoding snapshot: %w", err)
	}
	if !knownVersion(s.Version) {
		return nil, fmt.Errorf("%w: %d (this build reads %d and %d)", ErrVersion, s.Version, versionOmegaOnly, Version)
	}
	return &s, nil
}
