package ar

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sam/internal/join"
	"sam/internal/relation"
)

// modelFile is the on-disk representation of a trained model: enough to
// rebuild the layout and backbone deterministically, plus the learned
// weights. JSON keeps the format debuggable; weights dominate the size
// anyway.
type modelFile struct {
	Version    int                 `json:"version"`
	Schema     relation.SchemaSpec `json:"schema"`
	Population float64             `json:"population"`
	Config     Config              `json:"config"`
	// Cuts holds each discretizer's bin boundaries, per layout column.
	Cuts [][]int32 `json:"cuts"`
	// Params holds every trainable tensor's data, in Params() order.
	Params [][]float64 `json:"params"`
}

const modelFileVersion = 1

// Save serializes the model (schema metadata, discretizers, configuration,
// weights) so generation can run in a separate process from training.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{
		Version:    modelFileVersion,
		Schema:     m.Layout.Schema.Spec(),
		Population: m.Population,
		Config:     m.Cfg,
	}
	for _, d := range m.Disc {
		mf.Cuts = append(mf.Cuts, d.Cuts())
	}
	for _, p := range m.Net.Params() {
		mf.Params = append(mf.Params, p.Data)
	}
	return json.NewEncoder(w).Encode(&mf)
}

// Load rebuilds a model saved by Save.
func Load(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("ar: decode model: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("ar: unsupported model version %d", mf.Version)
	}
	if err := mf.Config.validate(); err != nil {
		return nil, err
	}
	if !(mf.Population > 0) || math.IsInf(mf.Population, 1) {
		return nil, fmt.Errorf("ar: population %v must be positive and finite", mf.Population)
	}
	shell, err := mf.Schema.EmptySchema()
	if err != nil {
		return nil, err
	}
	layout := join.NewLayout(shell)
	if len(mf.Cuts) != layout.NumCols() {
		return nil, fmt.Errorf("ar: model has %d discretizers for %d columns", len(mf.Cuts), layout.NumCols())
	}
	// Rebuild with the saved configuration (the net's shape is a pure
	// function of config + discretizer bins), then overwrite the weights.
	cfg := mf.Config
	cfg.Intervalize = false // discretizers come from the file, not queries
	m := NewModel(layout, nil, mf.Population, cfg)
	for i, cuts := range mf.Cuts {
		d, err := FromCuts(cuts)
		if err != nil {
			return nil, fmt.Errorf("ar: column %d: %w", i, err)
		}
		m.Disc[i] = d
	}
	// Discretizer bins may differ from the identity net built above;
	// rebuild the backbone with the right column sizes.
	colSizes := make([]int, layout.NumCols())
	for i, d := range m.Disc {
		colSizes[i] = d.Bins()
	}
	m.Net = buildBackbone(cfg, colSizes)
	params := m.Net.Params()
	if len(params) != len(mf.Params) {
		return nil, fmt.Errorf("ar: model has %d parameter tensors, file has %d", len(params), len(mf.Params))
	}
	for i, p := range params {
		if len(p.Data) != len(mf.Params[i]) {
			return nil, fmt.Errorf("ar: parameter %d has %d values, file has %d", i, len(p.Data), len(mf.Params[i]))
		}
		copy(p.Data, mf.Params[i])
		p.MarkDirty() // invalidate masked-weight caches over this tensor
	}
	m.Cfg = mf.Config
	return m, nil
}
