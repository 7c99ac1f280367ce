package core

import (
	"math"
	"math/rand"
	"time"

	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
)

// keySpan records that a sample contributes the given fraction of its
// primary-key weight to one assigned key. A sample whose scaled weight is
// below 1 usually lands in a single span (it merges with neighbours into
// one key); a sample whose scaled weight exceeds 1 represents several
// primary-key tuples and is split across several keys.
type keySpan struct {
	key  int64
	frac float64
}

// cellWalk is Alg. 3's split of one group's members over its keys. The
// group's merged weight lies on a continuous axis cut into count cells of
// equal weight, cell c being key base+c; members occupy consecutive
// intervals of the axis (in group order), and each member joins every cell
// it overlaps with the fraction of its weight inside that cell. Both the
// in-memory and the streaming merge walk their groups with it.
type cellWalk struct {
	base  int64
	count int
	cell  float64
	acc   float64
}

func newCellWalk(base int64, count int, groupWeight float64) cellWalk {
	return cellWalk{base: base, count: count, cell: groupWeight / float64(count)}
}

// split places the next member, of weight w, on the axis and appends its
// spans to dst in ascending key order.
func (cw *cellWalk) split(dst []keySpan, w float64) []keySpan {
	start, end := cw.acc, cw.acc+w
	cw.acc = end
	first := min(int(start/cw.cell), cw.count-1)
	last := min(int((end-1e-12)/cw.cell), cw.count-1)
	for c := first; c <= last; c++ {
		lo := math.Max(start, float64(c)*cw.cell)
		hi := math.Min(end, float64(c+1)*cw.cell)
		if frac := (hi - lo) / w; frac > 0 {
			dst = append(dst, keySpan{key: cw.base + int64(c), frac: frac})
		}
	}
	return dst
}

// majorityKey returns the span carrying the largest fraction.
func majorityKey(spans []keySpan) int64 {
	best := spans[0]
	for _, s := range spans[1:] {
		if s.frac > best.frac {
			best = s
		}
	}
	return best.key
}

// groupBins maps a sample's identifier-column bins to the coarser codes
// used for grouping: fanout bins collapse to log₂ buckets of their
// representative value. A learned model spreads probability mass over far
// more identifier combinations than the true data holds; grouping at full
// fanout precision would splinter that mass into groups too light to ever
// earn a key (Alg. 3's weight_sum ≥ 1 is then unreachable), silently
// dropping exactly the heavy-fanout tuples that dominate join sizes. This
// is the same failure mode — and the same remedy — as the paper's
// intervalization of numeric columns (§4.3.2): merge at a coarser
// granularity, keep exact values for the weights.
func (g *Generator) groupBins(row []int32, idCols []int, dst []int32) {
	for i, c := range idCols {
		col := &g.Layout.Cols[c]
		if col.Kind == join.Fanout {
			v := col.Bins[row[c]]
			bucket := int32(0)
			for v >= 2 {
				v /= 2
				bucket++
			}
			dst[i] = bucket
			continue
		}
		dst[i] = row[c]
	}
}

// materializeGaM assigns join keys with the Group-and-Merge algorithm
// (Alg. 3) and materializes the database. Primary-key tables are processed
// in topological order; each table's samples are grouped by the identifier
// columns of its primary key (plus the already-assigned parent key — the
// recursive extension to multi-level join trees). Within a group the
// scaled weights lie on a continuous axis that is cut into ⌈ΣW⌉ unit-sized
// cells: each cell becomes one fresh key (Alg. 3's weight_sum ≥ 1 rule),
// samples merge into the cell(s) they overlap, and samples heavier than
// one cell split across several keys — the generalization needed when the
// sample budget is much smaller than the full outer join, so individual
// scaled weights exceed 1.
func (g *Generator) materializeGaM(flat []int32, k int, tcs []*tableCtx, weights [][]float64, rng *rand.Rand, opts GenOptions) (*relation.Schema, error) {
	ncols := g.Layout.NumCols()
	sample := func(i int) []int32 { return flat[i*ncols : (i+1)*ncols] }
	tables := g.newEmptyTables()
	spansOf := make(map[string][][]keySpan) // pk table → per-sample spans

	for ti, tc := range tcs {
		t := tc.t
		tStart := time.Now()
		out := tables[t.Name]
		var parentSpans [][]keySpan
		if t.Parent != "" {
			parentSpans = spansOf[t.Parent]
		}
		w := weights[ti]

		if !tc.hasChildren {
			groups := g.materializeLeaf(out, tc, sample, k, w, parentSpans, rng)
			opts.Hooks.GenPhase(obs.GenPhase{
				Phase: "merge", Table: t.Name, Tuples: out.NumRows(),
				Groups: groups, Wall: time.Since(tStart),
			})
			continue
		}

		// Group samples by Identifier(T.pk) and the assigned parent key.
		coarse := make([]int32, len(tc.idCols))
		allCols := make([]int, len(tc.idCols))
		for i := range allCols {
			allCols[i] = i
		}
		type group struct{ members []int }
		order := make([]string, 0, k/4)
		groups := make(map[string]*group)
		for i := 0; i < k; i++ {
			if w[i] <= 0 {
				continue // NULL or zero-weight sample
			}
			var pk int64
			if parentSpans != nil {
				if parentSpans[i] == nil {
					continue // parent absent: inconsistent sample
				}
				pk = majorityKey(parentSpans[i])
			}
			g.groupBins(sample(i), tc.idCols, coarse)
			gk := binKey(coarse, allCols, pk)
			grp, ok := groups[gk]
			if !ok {
				grp = &group{}
				groups[gk] = grp
				order = append(order, gk)
			}
			grp.members = append(grp.members, i)
		}

		// Allocate exactly |T| keys across the groups in proportion to
		// their merged weights (global systematic allocation). Groups too
		// light to earn a key are dropped, mirroring Alg. 3's behaviour
		// where a set whose weights never reach 1 yields no tuple; their
		// child mass is restored by rescaling during leaf materialization.
		groupWeights := make([]float64, len(order))
		for gi, gk := range order {
			for _, m := range groups[gk].members {
				groupWeights[gi] += w[m]
			}
		}
		keyCounts := systematicCounts(groupWeights, g.Sizes[t.Name])

		spans := make([][]keySpan, k)
		var counter int64
		var reprs []int        // representative sample per key
		var reprParent []int64 // parent key per key
		for gi, gk := range order {
			nKeys := keyCounts[gi]
			if nKeys == 0 {
				continue
			}
			walk := newCellWalk(counter, nKeys, groupWeights[gi])
			counter += int64(nKeys)
			haveRepr := make([]bool, nKeys)
			for _, m := range groups[gk].members {
				spans[m] = walk.split(spans[m], w[m])
				for _, sp := range spans[m] {
					if c := sp.key - walk.base; !haveRepr[c] {
						haveRepr[c] = true
						//lint:allow hotalloc per-table key list built once per table in cold model construction
						reprs = append(reprs, m)
						pk := int64(0)
						if parentSpans != nil {
							pk = majorityKey(parentSpans[m])
						}
						//lint:allow hotalloc per-table key list built once per table in cold model construction
						reprParent = append(reprParent, pk)
					}
				}
			}
		}
		spansOf[t.Name] = spans

		// One row per assigned key; identifier grouping guarantees every
		// member of a key shares the table's content bins, so the
		// representative decodes exactly.
		out.PKVals = make([]int64, 0, len(reprs))
		for key, ri := range reprs {
			g.decodeRow(rng, tc, out.Cols, sample(ri))
			out.PKVals = append(out.PKVals, int64(key))
			if t.Parent != "" {
				out.FK = append(out.FK, reprParent[key])
			}
		}
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "merge", Table: t.Name, Tuples: out.NumRows(),
			Groups: len(order), Wall: time.Since(tStart),
		})
	}
	return g.finishSchema(tables)
}

// materializeLeaf replicates a leaf relation to exactly |T| rows:
// per-sample scaled weights are spread over the sample's parent-key spans,
// aggregated by (parent key, content bins) — "aggregating the scaled
// weights" within each merged set — and rounded by systematic allocation.
// It returns the number of merge groups formed (telemetry).
func (g *Generator) materializeLeaf(out *relation.Table, tc *tableCtx,
	sample func(int) []int32, k int, w []float64, parentSpans [][]keySpan, rng *rand.Rand) int {
	t := tc.t
	contentCols := g.Layout.ContentColumns(t.Name)
	type agg struct {
		weight float64
		repr   int
		fk     int64
	}
	order := make([]string, 0, k/4)
	aggs := make(map[string]*agg)
	add := func(i int, fk int64, weight float64) {
		key := binKey(sample(i), contentCols, fk)
		a, ok := aggs[key]
		if !ok {
			a = &agg{repr: i, fk: fk}
			aggs[key] = a
			order = append(order, key)
		}
		a.weight += weight
	}
	for i := 0; i < k; i++ {
		if w[i] <= 0 {
			continue // NULL or zero-weight sample
		}
		if parentSpans == nil {
			add(i, 0, w[i])
			continue
		}
		if parentSpans[i] == nil {
			continue
		}
		for _, sp := range parentSpans[i] {
			add(i, sp.key, w[i]*sp.frac)
		}
	}
	aggWeights := make([]float64, len(order))
	var aggSum float64
	for ai, key := range order {
		aggWeights[ai] = aggs[key].weight
		aggSum += aggs[key].weight
	}
	// Rescale so the mass lost with dropped parent groups is restored and
	// the rounded counts hit |T| exactly.
	if aggSum > 0 {
		factor := float64(g.Sizes[t.Name]) / aggSum
		for ai := range aggWeights {
			aggWeights[ai] *= factor
		}
	}
	counts := systematicCounts(aggWeights, g.Sizes[t.Name])
	for ai, c := range counts {
		if c == 0 {
			continue
		}
		a := aggs[order[ai]]
		row := sample(a.repr)
		for j := 0; j < c; j++ {
			g.decodeRow(rng, tc, out.Cols, row)
			if t.Parent != "" {
				out.FK = append(out.FK, a.fk)
			}
		}
	}
	return len(order)
}

// materializeViews is the "SAM w/o Group-and-Merge" ablation: foreign keys
// are assigned from pairwise (parent, child) views as in the paper's
// Figure 4 — each child row picks a uniform parent key among generated
// parent rows whose content matches the child's sampled parent content,
// which preserves pairwise correlation but breaks the joint distribution
// across three or more relations.
func (g *Generator) materializeViews(flat []int32, k int, tcs []*tableCtx, weights [][]float64, rng *rand.Rand, opts GenOptions) (*relation.Schema, error) {
	ncols := g.Layout.NumCols()
	sample := func(i int) []int32 { return flat[i*ncols : (i+1)*ncols] }
	tables := g.newEmptyTables()
	pkBySig := make(map[string]map[string][]int64) // table → content signature → pks
	pkAll := make(map[string][]int64)

	for ti, tc := range tcs {
		t, hasChildren := tc.t, tc.hasChildren
		tStart := time.Now()
		out := tables[t.Name]
		contentCols := g.Layout.ContentColumns(t.Name)
		var parentContent []int
		if t.Parent != "" {
			parentContent = g.Layout.ContentColumns(t.Parent)
		}
		// Aggregate weights over samples with identical (content, parent
		// content) bins so rounding happens per distinct tuple signature,
		// matching the GaM path's granularity.
		sigCols := make([]int, 0, len(contentCols)+len(parentContent))
		sigCols = append(append(sigCols, contentCols...), parentContent...)
		w := weights[ti]
		type agg struct {
			weight float64
			repr   int
		}
		order := make([]string, 0, k/4)
		aggs := make(map[string]*agg)
		for i := 0; i < k; i++ {
			if w[i] == 0 {
				continue
			}
			key := binKey(sample(i), sigCols, 0)
			a, ok := aggs[key]
			if !ok {
				a = &agg{repr: i}
				aggs[key] = a
				order = append(order, key)
			}
			a.weight += w[i]
		}
		aggWeights := make([]float64, len(order))
		for ai, key := range order {
			aggWeights[ai] = aggs[key].weight
		}
		counts := systematicCounts(aggWeights, g.Sizes[t.Name])
		if hasChildren {
			pkBySig[t.Name] = make(map[string][]int64)
			out.PKVals = make([]int64, 0, g.Sizes[t.Name])
		}
		var counter int64
		for ai, c := range counts {
			if c == 0 {
				continue
			}
			row := sample(aggs[order[ai]].repr)
			var cands []int64
			if t.Parent != "" {
				sig := binKey(row, parentContent, 0)
				cands = pkBySig[t.Parent][sig]
				if len(cands) == 0 {
					cands = pkAll[t.Parent]
				}
			}
			for j := 0; j < c; j++ {
				g.decodeRow(rng, tc, out.Cols, row)
				if t.Parent != "" {
					out.FK = append(out.FK, cands[rng.Intn(len(cands))])
				}
				if hasChildren {
					pk := counter
					counter++
					out.PKVals = append(out.PKVals, pk)
					sig := binKey(row, contentCols, 0)
					pkBySig[t.Name][sig] = append(pkBySig[t.Name][sig], pk)
					pkAll[t.Name] = append(pkAll[t.Name], pk)
				}
			}
		}
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "merge", Table: t.Name, Tuples: out.NumRows(),
			Groups: len(order), Wall: time.Since(tStart),
		})
	}
	return g.finishSchema(tables)
}
