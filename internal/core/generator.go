// Package core implements SAM's database generation pipeline — the paper's
// primary contribution. From uniform full-outer-join samples (drawn from a
// trained autoregressive model, or from any join.TupleSampler) it derives
// unbiased base-relation samples via inverse probability weighting (Alg. 2),
// scales them to the true relation sizes, assigns join keys with the
// Group-and-Merge algorithm (Alg. 3, extended recursively to multi-level
// trees), and materializes a synthetic database. Single-relation generation
// (Alg. 1) is the degenerate case with no virtual columns.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"sam/internal/ar"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
)

// GenOptions controls the generation pass.
type GenOptions struct {
	// Samples is the number of full-outer-join tuples to draw (the paper's
	// k). Zero defaults to the sum of target table sizes.
	Samples int
	// Workers bounds sampling parallelism; 0 = GOMAXPROCS. Workers only
	// schedule blocks of samples: no output byte depends on them.
	Workers int
	// Batch is the number of sampling lanes a sampler advances through the
	// model per forward sweep (batched ancestral sampling); values ≤ 1 draw
	// one tuple at a time. Samples are drawn in fixed blocks of blockRows
	// rows: lane l of block b draws from rng stream
	// ar.LaneSeed(ar.SplitSeed(Seed, b), l) and serves the block's rows l,
	// l+Batch, l+2·Batch, …. The samples are therefore a pure function of
	// (Seed, Batch, sample count), whatever Workers, shard count or
	// GOMAXPROCS.
	Batch int
	// Seed drives all sampling randomness.
	Seed int64
	// GroupAndMerge selects join-key assignment: true runs Algorithm 3;
	// false is the paper's "SAM w/o Group-and-Merge" ablation, which
	// assigns foreign keys from pairwise views (Figure 4).
	GroupAndMerge bool

	// Hooks, when non-nil, observes the generation phases: tuples sampled,
	// per-table weight mass before/after scaling, and merge-group counts.
	Hooks *obs.Hooks
	// Span, when non-nil, is the parent trace span; generation records
	// sample/weight/merge child spans under it.
	Span *obs.Span
}

// DefaultGenOptions returns options matching the paper's main configuration.
func DefaultGenOptions(seed int64) GenOptions {
	return GenOptions{Seed: seed, GroupAndMerge: true, Batch: 64}
}

// Generator materializes synthetic databases in the shape of the layout's
// schema.
type Generator struct {
	Layout *join.Layout
	// Disc decodes model bins back to raw column codes; indexed like the
	// layout's columns. Identity discretizers pass codes through.
	Disc []*ar.Discretizer
	// Sizes is the target row count per table (the |T| inputs of Alg. 1/2).
	Sizes map[string]int
}

// NewGenerator validates and builds a generator.
func NewGenerator(layout *join.Layout, disc []*ar.Discretizer, sizes map[string]int) (*Generator, error) {
	if len(disc) != layout.NumCols() {
		return nil, fmt.Errorf("core: %d discretizers for %d model columns", len(disc), layout.NumCols())
	}
	for _, t := range layout.Schema.Tables {
		if sizes[t.Name] <= 0 {
			return nil, fmt.Errorf("core: missing target size for table %s", t.Name)
		}
	}
	return &Generator{Layout: layout, Disc: disc, Sizes: sizes}, nil
}

// FromModel builds a generator for a trained SAM model with the original
// table sizes as targets.
func FromModel(m *ar.Model, sizes map[string]int) (*Generator, error) {
	return NewGenerator(m.Layout, m.Disc, sizes)
}

// ModelSampler returns the per-worker sampler factory Generate expects for
// a trained model, honoring the batch setting: lanes > 1 get the batched
// ancestral sampler, otherwise the per-tuple one.
func ModelSampler(m *ar.Model, batch int) func() join.TupleSampler {
	if batch > 1 {
		return func() join.TupleSampler { return m.NewBatchSampler(batch) }
	}
	return func() join.TupleSampler { return m.NewSampler() }
}

// Generate runs the full pipeline. newSampler is called once per worker
// goroutine; a stateless sampler may return itself repeatedly.
func (g *Generator) Generate(newSampler func() join.TupleSampler, opts GenOptions) (*relation.Schema, error) {
	k := opts.Samples
	if k <= 0 {
		for _, t := range g.Layout.Schema.Tables {
			k += g.Sizes[t.Name]
		}
	}
	return g.Materialize(g.DrawSamples(newSampler, k, opts), opts)
}

// sanitize enforces presence consistency on one sample: a NULL table
// (fanout bin 0) has NULL descendants too, and NULL tables' content bins
// are cleared — the invariant oracle samples satisfy by construction and
// model samples must be projected onto.
func (g *Generator) sanitize(dst []int32) {
	s := g.Layout.Schema
	for _, t := range s.Tables {
		if t.Parent == "" {
			continue
		}
		idx, _ := g.Layout.FanoutIndex(t.Name)
		if pIdx, ok := g.Layout.FanoutIndex(t.Parent); ok && dst[pIdx] == 0 {
			dst[idx] = 0
		}
		if dst[idx] == 0 {
			for _, ci := range g.Layout.ContentColumns(t.Name) {
				dst[ci] = 0
			}
		}
	}
}

// Materialize turns pre-drawn FOJ samples (k × NumCols bin codes, flat) into
// a database. Exposed separately so experiments can reuse one sample set
// across ablations.
func (g *Generator) Materialize(flat []int32, opts GenOptions) (*relation.Schema, error) {
	ncols := g.Layout.NumCols()
	if len(flat) == 0 || len(flat)%ncols != 0 {
		return nil, fmt.Errorf("core: sample buffer of %d codes is not a multiple of %d columns", len(flat), ncols)
	}
	k := len(flat) / ncols
	sample := func(i int) []int32 { return flat[i*ncols : (i+1)*ncols] }

	// Algorithm 2: inverse probability weighting and scaling, per table.
	weightSpan := opts.Span.Child("weight")
	tcs := g.tableCtxs()
	weights := make([][]float64, len(tcs))
	for ti, tc := range tcs {
		tStart := time.Now()
		w := make([]float64, k)
		var sum float64
		for i := range w {
			w[i] = g.rawWeight(tc, sample(i))
			sum += w[i]
		}
		if sum == 0 {
			weightSpan.End()
			return nil, fmt.Errorf("core: no full-outer-join sample contains relation %s", tc.t.Name)
		}
		tc.factor = float64(g.Sizes[tc.t.Name]) / sum // scaling step
		for i := range w {
			w[i] *= tc.factor
		}
		weights[ti] = w
		weightSpan.SetAttr("mass_"+tc.t.Name, sum)
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "weight", Table: tc.t.Name, Tuples: k,
			MassBefore: sum, MassAfter: float64(g.Sizes[tc.t.Name]),
			Wall: time.Since(tStart),
		})
	}
	weightSpan.End()

	mergeSpan := opts.Span.Child("merge")
	defer mergeSpan.End()
	mergeSpan.SetAttr("group_and_merge", opts.GroupAndMerge)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5a17))
	if opts.GroupAndMerge {
		return g.materializeGaM(flat, k, tcs, weights, rng, opts)
	}
	return g.materializeViews(flat, k, tcs, weights, rng, opts)
}

// tableCtx caches the per-table layout lookups the weight and merge passes
// make per sample. Both Alg. 2+3 drivers, in memory and streaming, build
// their tables from tableCtxs and weigh samples with rawWeight.
type tableCtx struct {
	t           *relation.Table
	hasChildren bool
	fanIdx      int
	hasFan      bool
	down        []int
	factor      float64 // per-table weight scaling (Sizes / weight mass)
	ctIdx       []int   // layout column index per t.Cols position
	idCols      []int   // identifier columns (internal tables)
}

// tableCtxs returns one tableCtx per table, in the schema's topological
// order; factor is left for the weight pass to fill in.
func (g *Generator) tableCtxs() []*tableCtx {
	tcs := make([]*tableCtx, 0, len(g.Layout.Schema.Tables))
	for _, t := range g.Layout.Schema.Tables {
		fanIdx, hasFan := g.Layout.FanoutIndex(t.Name)
		tc := &tableCtx{
			t:           t,
			hasChildren: len(g.Layout.Schema.Children(t.Name)) > 0,
			fanIdx:      fanIdx,
			hasFan:      hasFan,
			down:        g.Layout.DownweightColumns([]string{t.Name}),
			ctIdx:       make([]int, len(t.Cols)),
		}
		for ci, c := range t.Cols {
			tc.ctIdx[ci] = g.Layout.ContentIndex(t.Name, c.Name)
		}
		if tc.hasChildren {
			tc.idCols = g.Layout.IdentifierColumns(t.Name)
		}
		tcs = append(tcs, tc)
	}
	return tcs
}

// rawWeight is one sample's Alg. 2 inverse-probability weight for the
// table before scaling: zero when the table is NULL in the sample (no
// tuple of it is derived), else Π 1/WeightVals over its down-weight
// columns.
func (g *Generator) rawWeight(tc *tableCtx, row []int32) float64 {
	if tc.hasFan && row[tc.fanIdx] == 0 {
		return 0
	}
	wi := 1.0
	for _, f := range tc.down {
		wi /= g.Layout.Cols[f].WeightVals[row[f]]
	}
	return wi
}

// binKey serializes selected columns of a sample into a map key.
func binKey(row []int32, cols []int, extra int64) string {
	buf := make([]byte, 0, len(cols)*4+8)
	for _, c := range cols {
		v := row[c]
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for s := 0; s < 64; s += 8 {
		buf = append(buf, byte(extra>>s))
	}
	return string(buf)
}

// systematicCounts allocates total units over nonnegative weights by
// systematic (stratified) resampling: pointers at (j+½)·(Σw/total) on the
// cumulative weight axis, one unit per pointer. Unlike largest-remainder
// rounding — which systematically starves regions whose mass is splintered
// over many small entries (each fraction individually loses to larger
// ones) — systematic allocation is unbiased per region: a run of entries
// with combined weight W receives W·total/Σw units in expectation no
// matter how finely it is divided. Entries with zero weight get zero. It
// walks the same sysAlloc the streaming merge uses; float drift can leave
// the last pointers unassigned, and the final positive entry takes them.
func systematicCounts(weights []float64, total int) []int {
	var sum float64
	last := -1
	for i, w := range weights {
		if w > 0 {
			sum += w
			last = i
		}
	}
	counts := make([]int, len(weights))
	alloc := newSysAlloc(sum, total)
	for i, w := range weights {
		counts[i] = alloc.next(w)
	}
	if last >= 0 {
		counts[last] += alloc.leftover()
	}
	return counts
}

// decodeRow appends the decoded content values of tc's table for one
// sample.
func (g *Generator) decodeRow(rng *rand.Rand, tc *tableCtx, cols []*relation.Column, row []int32) {
	for ci, li := range tc.ctIdx {
		cols[ci].Append(g.Disc[li].SampleIn(rng, int(row[li])))
	}
}

// newEmptyTables clones the schema's table shells (same columns/domains, no
// data).
func (g *Generator) newEmptyTables() map[string]*relation.Table {
	out := make(map[string]*relation.Table, len(g.Layout.Schema.Tables))
	for _, t := range g.Layout.Schema.Tables {
		cols := make([]*relation.Column, len(t.Cols))
		for i, c := range t.Cols {
			nc := relation.NewColumn(c.Name, c.Kind, c.NumValues)
			if c.Vals != nil {
				nc = nc.WithVals(c.Vals)
			}
			cols[i] = nc
		}
		nt := relation.NewTable(t.Name, cols...)
		nt.Parent = t.Parent
		out[t.Name] = nt
	}
	return out
}

func (g *Generator) finishSchema(tables map[string]*relation.Table) (*relation.Schema, error) {
	ordered := make([]*relation.Table, 0, len(tables))
	for _, t := range g.Layout.Schema.Tables {
		ordered = append(ordered, tables[t.Name])
	}
	s, err := relation.NewSchema(ordered...)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
