package ar

import (
	"math"
	"math/rand"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/nn"
	"sam/internal/relation"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// fullForwardChain is the reference chain: every step runs the backbone's
// full Forward over all columns, with zero placeholders for the columns
// not yet sampled, and keeps only head i. It is exact by construction
// (head i never reads columns ≥ i) and costs NumCols full passes.
type fullForwardChain struct {
	net  nn.Backbone
	rows int
	in   []*tensor.Node
}

func (c *fullForwardChain) Begin(rows int) { c.rows = rows }

func (c *fullForwardChain) Col(g *tensor.Graph, i int, parts []*tensor.Node) *tensor.Node {
	sizes := c.net.ColSizes()
	c.in = append(c.in[:0], parts[:i]...)
	for j := i; j < len(sizes); j++ {
		c.in = append(c.in, g.Const(g.NewTensor(c.rows, sizes[j])))
	}
	out := c.net.Forward(g, g.ConcatCols(c.in...))
	return g.SliceCols(out, c.net.Offsets()[i], sizes[i])
}

// chunkResult is one forwardChunk's loss, parameter gradients (nil for
// parameters the chunk never touched) and the next draw of its RNG.
type chunkResult struct {
	loss  float64
	grads [][]float64
	next  int64
}

func chunkOnce(m *Model, chain nn.Chain, specs []*Spec, targets []float64, rows []int,
	cfg TrainConfig, seed int64) chunkResult {
	g := tensor.NewGraph()
	sc := newChunkScratch(m.Net)
	if chain != nil {
		sc.chain = chain
	}
	rng := rand.New(rand.NewSource(seed))
	res := chunkResult{loss: forwardChunk(m, g, &sc, specs, targets, rows, cfg, rng)}
	for _, p := range m.Net.Params() {
		var gv []float64
		if gr := g.ParamGrad(p); gr != nil {
			gv = append(gv, gr.Data...)
		}
		res.grads = append(res.grads, gv)
	}
	res.next = rng.Int63()
	return res
}

// TestChainMatchesFullForward pins the incremental DPS chain to the
// full-forward reference: on random models, one forwardChunk through each
// gives the same loss and the same gradient for every parameter, within
// 1e-12 of the largest gradient entry of that parameter, and consumes the
// same Gumbel draws.
func TestChainMatchesFullForward(t *testing.T) {
	type tc struct {
		name    string
		schema  func(*rand.Rand) *relation.Schema
		join    bool
		model   Config
		samples int
	}
	made := func(hidden, layers int) Config {
		return Config{Hidden: hidden, HiddenLayers: layers, Intervalize: true, Seed: 5, Arch: "made"}
	}
	five := func(rng *rand.Rand) *relation.Schema { return multiColTable(rng, 200, 4, 6, 3, 8, 5) }
	seven := func(rng *rand.Rand) *relation.Schema { return multiColTable(rng, 200, 3, 5, 4, 2, 6, 3, 7) }
	one := func(rng *rand.Rand) *relation.Schema { return multiColTable(rng, 200, 6) }
	joined := func(rng *rand.Rand) *relation.Schema { return twoTableJoin(rng, 40, 100) }
	tfm := Config{Hidden: 16, HiddenLayers: 2, Intervalize: true, Seed: 5,
		Arch: "transformer", DModel: 8, Heads: 2}
	cases := []tc{
		{name: "made-1layer-wide", schema: five, model: made(16, 1), samples: 1},
		{name: "made-2layer-narrow", schema: seven, model: made(3, 2), samples: 1},
		{name: "made-3layer", schema: five, model: made(6, 3), samples: 1},
		{name: "made-single-column", schema: one, model: made(8, 2), samples: 1},
		{name: "made-progressive-2", schema: seven, model: made(12, 2), samples: 2},
		{name: "made-fanout", schema: joined, join: true, model: made(8, 2), samples: 1},
		{name: "made-fanout-narrow", schema: joined, join: true, model: made(2, 3), samples: 2},
		{name: "transformer", schema: five, model: tfm, samples: 2},
		{name: "transformer-fanout", schema: joined, join: true, model: tfm, samples: 1},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			s := c.schema(rng)
			var queries []workload.Query
			pop := float64(s.Tables[0].NumRows())
			if c.join {
				queries = workload.GenerateMultiRelation(rng, s, 40, workload.DefaultMultiRelationOptions())
				pop = float64(engine.FOJSize(s))
			} else {
				queries = workload.GenerateSingleRelation(rng, s.Tables[0], 40, workload.DefaultSingleRelationOptions())
			}
			wl := &workload.Workload{Queries: engine.Label(s, queries)}
			m := NewModel(join.NewLayout(s), wl.Queries, pop, c.model)
			// Random biases and weights, so no gradient is trivially zero.
			for _, p := range m.Net.Params() {
				for i := range p.Data {
					p.Data[i] += 0.3 * rng.NormFloat64()
				}
				p.MarkDirty()
			}
			specs, targets, _ := compileWorkload(m, wl)
			rows := make([]int, min(len(specs), 16))
			for i := range rows {
				rows[i] = i
			}
			down := false
			for _, qi := range rows {
				for _, d := range specs[qi].Downweight {
					down = down || d
				}
			}
			if c.join && !down {
				t.Fatal("fixture has no downweighted column")
			}
			cfg := DefaultTrainConfig()
			cfg.ProgressiveSamples = c.samples

			got := chunkOnce(m, nil, specs, targets, rows, cfg, 77)
			want := chunkOnce(m, &fullForwardChain{net: m.Net}, specs, targets, rows, cfg, 77)
			if got.next != want.next {
				t.Fatal("chains consumed different Gumbel draws")
			}
			if d := math.Abs(got.loss - want.loss); d > 1e-12*math.Abs(want.loss) {
				t.Fatalf("loss %v, reference %v (|Δ| %g)", got.loss, want.loss, d)
			}
			for pi := range want.grads {
				var maxG, maxD float64
				for i, w := range want.grads[pi] {
					var g float64
					if got.grads[pi] != nil {
						g = got.grads[pi][i]
					}
					maxG = math.Max(maxG, math.Abs(w))
					maxD = math.Max(maxD, math.Abs(g-w))
				}
				if got.grads[pi] == nil && maxG != 0 {
					t.Fatalf("param %d: no gradient, reference max |g| %g", pi, maxG)
				}
				if maxD > 1e-12*maxG {
					t.Fatalf("param %d: max |Δ| %g > 1e-12·max|g| (%g)", pi, maxD, maxG)
				}
			}
		})
	}
}
