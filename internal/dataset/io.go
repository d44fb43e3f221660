package dataset

import (
	"encoding/json"
	"fmt"
	"io"

	"ses/internal/activity"
	"ses/internal/core"
	"ses/internal/ebsn"
	"ses/internal/interest"
)

// datasetJSON is the on-disk form of an EBSN snapshot.
type datasetJSON struct {
	Config     ebsn.Config `json:"config"`
	UserTags   [][]int32   `json:"user_tags"`
	UserGroups [][]int32   `json:"user_groups"`
	EventTags  [][]int32   `json:"event_tags"`
	EventGroup []int32     `json:"event_group"`
	GroupTags  [][]int32   `json:"group_tags"`
}

// SaveDataset writes the snapshot as JSON.
func SaveDataset(w io.Writer, ds *ebsn.Dataset) error {
	out := datasetJSON{
		Config:     ds.Config,
		UserTags:   tagSetsToRaw(ds.UserTags),
		UserGroups: ds.UserGroups,
		EventTags:  tagSetsToRaw(ds.EventTags),
		EventGroup: ds.EventGroup,
		GroupTags:  tagSetsToRaw(ds.GroupTags),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadDataset reads a snapshot written by SaveDataset.
func LoadDataset(r io.Reader) (*ebsn.Dataset, error) {
	var in datasetJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("dataset: decoding dataset: %w", err)
	}
	if len(in.EventTags) != len(in.EventGroup) {
		return nil, fmt.Errorf("dataset: %d event tag sets but %d group links",
			len(in.EventTags), len(in.EventGroup))
	}
	return &ebsn.Dataset{
		Config:     in.Config,
		UserTags:   rawToTagSets(in.UserTags),
		UserGroups: in.UserGroups,
		EventTags:  rawToTagSets(in.EventTags),
		EventGroup: in.EventGroup,
		GroupTags:  rawToTagSets(in.GroupTags),
	}, nil
}

func tagSetsToRaw(ts []interest.TagSet) [][]int32 {
	out := make([][]int32, len(ts))
	for i, s := range ts {
		out[i] = []int32(s)
	}
	return out
}

func rawToTagSets(raw [][]int32) []interest.TagSet {
	out := make([]interest.TagSet, len(raw))
	for i, s := range raw {
		out[i] = interest.NewTagSet(s)
	}
	return out
}

// ActivityDoc describes the σ model of a serialized instance.
type ActivityDoc struct {
	Type  string      `json:"type"` // "uniformhash" | "constant" | "table"
	Seed  uint64      `json:"seed,omitempty"`
	P     float64     `json:"p,omitempty"`
	Table [][]float64 `json:"table,omitempty"`
}

// VectorDoc is a sparse interest row. It decodes its own JSON (see
// UnmarshalJSON).
type VectorDoc struct {
	IDs  []int32   `json:"ids"`
	Vals []float64 `json:"vals"`
	// unknownKey records that the row's JSON carried a key with no
	// field here (see CheckRowKeys); neither codec writes it.
	unknownKey bool
}

// MatrixDoc is a sparse interest matrix.
type MatrixDoc struct {
	NumUsers int         `json:"num_users"`
	Rows     []VectorDoc `json:"rows"`
}

// InstanceDoc is the serializable document form of a core.Instance:
// plain exported fields, no interfaces, no maps. SaveInstance and
// LoadInstance wrap it as JSON for standalone files; the snapshot
// codec (ses/internal/snap) embeds it and writes its own binary
// layout of these fields, so a field added here must be added there
// too (its TestFullSnapshotCarriesEveryField fails until it is).
type InstanceDoc struct {
	NumUsers     int                   `json:"num_users"`
	NumIntervals int                   `json:"num_intervals"`
	Resources    float64               `json:"resources"`
	Events       []core.Event          `json:"events"`
	Competing    []core.CompetingEvent `json:"competing"`
	CandInterest MatrixDoc             `json:"cand_interest"`
	CompInterest MatrixDoc             `json:"comp_interest"`
	Activity     ActivityDoc           `json:"activity"`
}

// NewInstanceDoc converts an instance to its document form. The
// activity model must be one of activity.UniformHash, activity.Constant
// or *activity.Table; other models have no serialized form.
func NewInstanceDoc(inst *core.Instance) (*InstanceDoc, error) {
	var act ActivityDoc
	switch a := inst.Activity.(type) {
	case activity.UniformHash:
		act = ActivityDoc{Type: "uniformhash", Seed: a.Seed}
	case activity.Constant:
		act = ActivityDoc{Type: "constant", P: float64(a)}
	case *activity.Table:
		act = ActivityDoc{Type: "table", Table: a.P}
	default:
		return nil, fmt.Errorf("dataset: activity model %T has no serialized form", inst.Activity)
	}
	return &InstanceDoc{
		NumUsers:     inst.NumUsers,
		NumIntervals: inst.NumIntervals,
		Resources:    inst.Resources,
		Events:       inst.Events,
		Competing:    inst.Competing,
		CandInterest: matrixToDoc(inst.CandInterest),
		CompInterest: matrixToDoc(inst.CompInterest),
		Activity:     act,
	}, nil
}

// Instance reconstructs and validates the instance the document
// describes. Malformed documents yield errors, never panics.
func (d *InstanceDoc) Instance() (*core.Instance, error) {
	var act core.Activity
	switch d.Activity.Type {
	case "uniformhash":
		act = activity.UniformHash{Seed: d.Activity.Seed}
	case "constant":
		act = activity.Constant(d.Activity.P)
	case "table":
		tab, err := activity.NewTable(d.Activity.Table)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		act = tab
	default:
		return nil, fmt.Errorf("dataset: unknown activity type %q", d.Activity.Type)
	}
	cand, err := matrixFromDoc(d.CandInterest)
	if err != nil {
		return nil, fmt.Errorf("dataset: candidate interest: %w", err)
	}
	comp, err := matrixFromDoc(d.CompInterest)
	if err != nil {
		return nil, fmt.Errorf("dataset: competing interest: %w", err)
	}
	inst := &core.Instance{
		NumUsers:     d.NumUsers,
		NumIntervals: d.NumIntervals,
		Resources:    d.Resources,
		Events:       d.Events,
		Competing:    d.Competing,
		CandInterest: cand,
		CompInterest: comp,
		Activity:     act,
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: loaded instance invalid: %w", err)
	}
	return inst, nil
}

// SaveInstance writes the instance as JSON; see NewInstanceDoc for the
// supported activity models.
func SaveInstance(w io.Writer, inst *core.Instance) error {
	doc, err := NewInstanceDoc(inst)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(doc)
}

// LoadInstance reads an instance written by SaveInstance and validates
// it.
func LoadInstance(r io.Reader) (*core.Instance, error) {
	var doc InstanceDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("dataset: decoding instance: %w", err)
	}
	return doc.Instance()
}

func matrixToDoc(m *interest.Matrix) MatrixDoc {
	out := MatrixDoc{NumUsers: m.NumUsers, Rows: make([]VectorDoc, m.NumEvents())}
	for e := 0; e < m.NumEvents(); e++ {
		r := m.Row(e)
		out.Rows[e] = VectorDoc{IDs: r.IDs, Vals: r.Vals}
	}
	return out
}

func matrixFromDoc(in MatrixDoc) (*interest.Matrix, error) {
	m := interest.NewMatrix(in.NumUsers, len(in.Rows))
	for e, r := range in.Rows {
		v, err := interest.NewSparseVector(r.IDs, r.Vals)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", e, err)
		}
		m.SetRow(e, v)
	}
	return m, nil
}
