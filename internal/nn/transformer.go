package nn

import (
	"fmt"
	"math"
	"math/rand"

	"sam/internal/tensor"
)

// Transformer is a causal (decoder-only) transformer over grouped
// categorical columns — the paper's alternative autoregressive backbone
// (§4.1 instantiates SAM "by any learning-based AR architecture (e.g.,
// MADE and Transformer)"). Column values become a token sequence shifted
// right behind a start-of-sequence token; position i's output produces the
// logits of column i, and the causal attention mask guarantees it depends
// only on columns < i.
type Transformer struct {
	colSizes []int
	offsets  []int
	inDim    int

	dModel int
	heads  int
	dk     int
	ff     int

	wEmb *tensor.Tensor // inDim × dModel (per-value embeddings)
	sos  *tensor.Tensor // 1 × dModel
	pos  *tensor.Tensor // numCols × dModel

	layers []*transformerLayer

	lnFGain, lnFBias *tensor.Tensor
	wOut             *tensor.Tensor // dModel × inDim
	bOut             *tensor.Tensor // 1 × inDim

	causal []*tensor.Tensor // causal[L−1]: L×L additive mask (0 / −1e30)
}

var _ Backbone = (*Transformer)(nil)

type transformerLayer struct {
	ln1Gain, ln1Bias *tensor.Tensor
	wq, wk, wv, wo   *tensor.Tensor // dModel × dModel
	ln2Gain, ln2Bias *tensor.Tensor
	w1               *tensor.Tensor // dModel × ff
	b1               *tensor.Tensor // 1 × ff
	w2               *tensor.Tensor // ff × dModel
	b2               *tensor.Tensor // 1 × dModel
}

// NewTransformer constructs a pre-norm causal transformer with the given
// model width, head count, feed-forward width and layer count.
func NewTransformer(rng *rand.Rand, colSizes []int, dModel, heads, ffDim, numLayers int) *Transformer {
	n := len(colSizes)
	if n == 0 {
		panic("nn: Transformer needs at least one column")
	}
	if dModel <= 0 || heads <= 0 || dModel%heads != 0 || ffDim <= 0 || numLayers <= 0 {
		panic(fmt.Sprintf("nn: bad transformer config d=%d h=%d ff=%d L=%d", dModel, heads, ffDim, numLayers))
	}
	t := &Transformer{
		colSizes: append([]int(nil), colSizes...),
		dModel:   dModel,
		heads:    heads,
		dk:       dModel / heads,
		ff:       ffDim,
	}
	t.offsets = make([]int, n)
	for i, s := range colSizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: column %d has nonpositive domain %d", i, s))
		}
		t.offsets[i] = t.inDim
		t.inDim += s
	}

	newT := func(r, c int, std float64) *tensor.Tensor {
		m := tensor.New(r, c)
		m.Randn(rng, std)
		return m
	}
	ones := func(c int) *tensor.Tensor {
		m := tensor.New(1, c)
		m.Fill(1)
		return m
	}
	std := 1 / math.Sqrt(float64(dModel))
	t.wEmb = newT(t.inDim, dModel, std)
	t.sos = newT(1, dModel, std)
	t.pos = newT(n, dModel, std)
	for l := 0; l < numLayers; l++ {
		t.layers = append(t.layers, &transformerLayer{
			ln1Gain: ones(dModel), ln1Bias: tensor.New(1, dModel),
			wq: newT(dModel, dModel, std), wk: newT(dModel, dModel, std),
			wv: newT(dModel, dModel, std), wo: newT(dModel, dModel, std),
			ln2Gain: ones(dModel), ln2Bias: tensor.New(1, dModel),
			w1: newT(dModel, ffDim, std), b1: tensor.New(1, ffDim),
			w2: newT(ffDim, dModel, 1/math.Sqrt(float64(ffDim))), b2: tensor.New(1, dModel),
		})
	}
	t.lnFGain = ones(dModel)
	t.lnFBias = tensor.New(1, dModel)
	t.wOut = newT(dModel, t.inDim, std)
	t.bOut = tensor.New(1, t.inDim)

	t.causal = make([]*tensor.Tensor, n)
	for L := 1; L <= n; L++ {
		c := tensor.New(L, L)
		for i := 0; i < L; i++ {
			for j := i + 1; j < L; j++ {
				c.Set(i, j, -1e30)
			}
		}
		t.causal[L-1] = c
	}
	return t
}

// InDim returns the total one-hot input width.
func (t *Transformer) InDim() int { return t.inDim }

// NumCols returns the number of modeled columns.
func (t *Transformer) NumCols() int { return len(t.colSizes) }

// ColSizes returns the per-column domain sizes.
func (t *Transformer) ColSizes() []int { return t.colSizes }

// Offsets returns each column block's start offset.
func (t *Transformer) Offsets() []int { return t.offsets }

// OutputBias returns the output projection bias (1×InDim).
func (t *Transformer) OutputBias() *tensor.Tensor { return t.bOut }

// ColLogits slices the logits of column i out of a full output row.
func (t *Transformer) ColLogits(out []float64, i int) []float64 {
	return out[t.offsets[i] : t.offsets[i]+t.colSizes[i]]
}

// Params returns all trainable tensors.
func (t *Transformer) Params() []*tensor.Tensor {
	ps := []*tensor.Tensor{t.wEmb, t.sos, t.pos}
	for _, l := range t.layers {
		ps = append(ps,
			l.ln1Gain, l.ln1Bias, l.wq, l.wk, l.wv, l.wo,
			l.ln2Gain, l.ln2Bias, l.w1, l.b1, l.w2, l.b2)
	}
	ps = append(ps, t.lnFGain, t.lnFBias, t.wOut, t.bOut)
	return ps
}

// Forward runs the batched autodiff pass. Samples are independent token
// sequences, processed one per batch row and re-stacked.
func (t *Transformer) Forward(g *tensor.Graph, x *tensor.Node) *tensor.Node {
	rows := make([]*tensor.Node, x.Val.Rows)
	for b := 0; b < x.Val.Rows; b++ {
		rows[b] = t.forwardOne(g, g.SliceRows(x, b, 1))
	}
	if len(rows) == 1 {
		return rows[0]
	}
	return g.ConcatRows(rows...)
}

// forwardOne computes the 1×InDim logits of one sample (1×InDim input).
func (t *Transformer) forwardOne(g *tensor.Graph, x *tensor.Node) *tensor.Node {
	n := len(t.colSizes)
	wEmb := g.Param(t.wEmb)
	// Token sequence: SOS, then embeddings of columns 0..n−2.
	tokens := make([]*tensor.Node, n)
	tokens[0] = g.Param(t.sos)
	for i := 1; i < n; i++ {
		blk := g.SliceCols(x, t.offsets[i-1], t.colSizes[i-1])
		emb := g.MatMul(blk, g.SliceRows(wEmb, t.offsets[i-1], t.colSizes[i-1]))
		tokens[i] = emb
	}
	hn := t.encode(g, tokens)
	logits := g.AddRow(g.MatMul(hn, g.Param(t.wOut)), g.Param(t.bOut)) // n × inDim

	// Gather: column i's logits come from token row i.
	parts := make([]*tensor.Node, n)
	for i := 0; i < n; i++ {
		parts[i] = g.SliceCols(g.SliceRows(logits, i, 1), t.offsets[i], t.colSizes[i])
	}
	if n == 1 {
		return parts[0]
	}
	return g.ConcatCols(parts...)
}

// encode runs the positional embeddings, the causal blocks and the final
// LayerNorm over the first len(tokens) ≤ NumCols positions of one sample
// (each token 1×dModel) and returns the len(tokens)×dModel hidden states.
func (t *Transformer) encode(g *tensor.Graph, tokens []*tensor.Node) *tensor.Node {
	L := len(tokens)
	seq := tokens[0]
	if L > 1 {
		seq = g.ConcatRows(tokens...)
	}
	pos := g.Param(t.pos)
	if L < len(t.colSizes) {
		pos = g.SliceRows(pos, 0, L)
	}
	hn := g.Add(seq, pos)

	scale := 1 / math.Sqrt(float64(t.dk))
	for _, l := range t.layers {
		// Pre-norm attention block.
		a := g.LayerNorm(hn, g.Param(l.ln1Gain), g.Param(l.ln1Bias), 1e-5)
		q := g.MatMul(a, g.Param(l.wq))
		k := g.MatMul(a, g.Param(l.wk))
		v := g.MatMul(a, g.Param(l.wv))
		headOuts := make([]*tensor.Node, t.heads)
		for hd := 0; hd < t.heads; hd++ {
			qh := g.SliceCols(q, hd*t.dk, t.dk)
			kh := g.SliceCols(k, hd*t.dk, t.dk)
			vh := g.SliceCols(v, hd*t.dk, t.dk)
			scores := g.AddConst(g.Scale(g.MatMulTB(qh, kh), scale), t.causal[L-1])
			probs := g.SoftmaxRows(scores)
			headOuts[hd] = g.MatMul(probs, vh)
		}
		var ctx *tensor.Node
		if t.heads == 1 {
			ctx = headOuts[0]
		} else {
			ctx = g.ConcatCols(headOuts...)
		}
		hn = g.Add(hn, g.MatMul(ctx, g.Param(l.wo)))

		// Pre-norm feed-forward block.
		f := g.LayerNorm(hn, g.Param(l.ln2Gain), g.Param(l.ln2Bias), 1e-5)
		f = g.AddRow(g.MatMul(f, g.Param(l.w1)), g.Param(l.b1))
		f = g.ReLU(f)
		f = g.AddRow(g.MatMul(f, g.Param(l.w2)), g.Param(l.b2))
		hn = g.Add(hn, f)
	}
	return g.LayerNorm(hn, g.Param(t.lnFGain), g.Param(t.lnFBias), 1e-5)
}

// transformerChain runs the Transformer's full causal forward on the
// current prefix: step i encodes the i+1 tokens SOS, column 0, …, column
// i−1 of every row and reads head i off position i. Causality makes that
// position's output the same as in a forward over all columns. Only the
// column embeddings carry over between steps — there is no key/value
// cache on the tape — so a chain costs about half the token-steps of
// NumCols full forwards, not one forward as for MADE.
type transformerChain struct {
	t    *Transformer
	rows int
	emb  []*tensor.Node // emb[c]: rows×dModel embeddings of sampled column c
	seq  []*tensor.Node // one row's token list
	last []*tensor.Node // per row: the hidden state at position i
}

// NewChain allocates chain state sized for t.
func (t *Transformer) NewChain() Chain {
	n := len(t.colSizes)
	return &transformerChain{t: t, emb: make([]*tensor.Node, n), seq: make([]*tensor.Node, 0, n)}
}

// Begin starts a chain of rows rows.
func (c *transformerChain) Begin(rows int) {
	c.rows = rows
	clear(c.emb)
	if cap(c.last) < rows {
		c.last = make([]*tensor.Node, rows)
	}
	c.last = c.last[:rows]
}

// Col embeds column i−1, encodes every row's prefix, and projects
// position i onto column i's logits.
func (c *transformerChain) Col(g *tensor.Graph, i int, parts []*tensor.Node) *tensor.Node {
	t := c.t
	if i > 0 {
		c.emb[i-1] = g.MatMul(parts[i-1], g.SliceRows(g.Param(t.wEmb), t.offsets[i-1], t.colSizes[i-1]))
	}
	for r := range c.last {
		c.seq = append(c.seq[:0], g.Param(t.sos))
		for _, e := range c.emb[:i] {
			c.seq = append(c.seq, g.SliceRows(e, r, 1))
		}
		c.last[r] = g.SliceRows(t.encode(g, c.seq), i, 1)
	}
	h := c.last[0]
	if len(c.last) > 1 {
		h = g.ConcatRows(c.last...)
	}
	off, size := t.offsets[i], t.colSizes[i]
	return g.AddRow(g.MatMul(h, g.SliceCols(g.Param(t.wOut), off, size)), g.SliceCols(g.Param(t.bOut), off, size))
}
