package nn

import (
	"fmt"
	"math/rand"

	"sam/internal/tensor"
)

// MADE is a Masked Autoencoder for Distribution Estimation (Germain et al.,
// ICML'15) over grouped categorical inputs: column i of the modeled relation
// occupies a contiguous block of colSizes[i] one-hot input units and the
// same block of output logits. The masks guarantee that the logits for
// column i depend only on the one-hot inputs of columns < i, so the network
// parameterizes the autoregressive factorization
// P(x) = Π_i P(x_i | x_<i) used throughout the SAM paper.
type MADE struct {
	colSizes []int // domain size per column, in autoregressive order
	offsets  []int // start offset of each column block
	inDim    int   // Σ colSizes

	layers []*MaskedLinear // alternating affine layers; ReLU between

	// degEnd[d] counts the hidden units of degree ≤ d (the same in every
	// hidden layer). Degrees are sorted, so degree d owns the contiguous
	// unit range [degEnd[d−1], degEnd[d]).
	degEnd []int
}

var _ Backbone = (*MADE)(nil)

// NewMADE constructs a MADE with numHidden hidden layers of width hidden.
// Hidden-unit degrees are assigned round-robin over 1..n−1 (or 1 when the
// model has a single column) which gives every conditional access to all of
// its predecessors.
func NewMADE(rng *rand.Rand, colSizes []int, hidden, numHidden int) *MADE {
	n := len(colSizes)
	if n == 0 {
		panic("nn: MADE needs at least one column")
	}
	if hidden <= 0 || numHidden <= 0 {
		panic("nn: MADE needs positive hidden sizes")
	}
	m := &MADE{colSizes: append([]int(nil), colSizes...)}
	m.offsets = make([]int, n)
	for i, s := range colSizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: column %d has nonpositive domain %d", i, s))
		}
		m.offsets[i] = m.inDim
		m.inDim += s
	}

	// Degrees: input unit of column i has degree i+1; output unit of column
	// i has degree i+1; hidden degrees cycle 1..max(1, n−1).
	inDeg := make([]int, m.inDim)
	for i, off := range m.offsets {
		for j := 0; j < colSizes[i]; j++ {
			inDeg[off+j] = i + 1
		}
	}
	maxHid := n - 1
	if maxHid < 1 {
		maxHid = 1
	}
	// Hidden degrees are assigned in sorted order (rather than round-robin)
	// so every mask row's nonzeros form one contiguous block: the degree
	// multiset — and hence the model class — is identical up to a
	// permutation of hidden units, but contiguity lets the masked-matmul
	// kernels skip the masked-out half of each row entirely.
	hidDeg := make([]int, hidden)
	for j := range hidDeg {
		hidDeg[j] = 1 + j*maxHid/hidden
	}
	m.degEnd = make([]int, maxHid+1)
	for _, d := range hidDeg {
		m.degEnd[d]++
	}
	for d := 1; d <= maxHid; d++ {
		m.degEnd[d] += m.degEnd[d-1]
	}

	prevDeg := inDeg
	prevDim := m.inDim
	for layer := 0; layer < numHidden; layer++ {
		mask := tensor.New(prevDim, hidden)
		for r := 0; r < prevDim; r++ {
			for c := 0; c < hidden; c++ {
				if hidDeg[c] >= prevDeg[r] {
					mask.Set(r, c, 1)
				}
			}
		}
		m.layers = append(m.layers, NewMaskedLinear(rng, prevDim, hidden, mask))
		prevDeg = hidDeg
		prevDim = hidden
	}

	// Output layer: strict inequality so column i never sees itself.
	outMask := tensor.New(prevDim, m.inDim)
	for r := 0; r < prevDim; r++ {
		for i, off := range m.offsets {
			if i+1 > prevDeg[r] {
				for j := 0; j < colSizes[i]; j++ {
					outMask.Set(r, off+j, 1)
				}
			}
		}
	}
	m.layers = append(m.layers, NewMaskedLinear(rng, prevDim, m.inDim, outMask))
	return m
}

// InDim returns the total one-hot input width.
func (m *MADE) InDim() int { return m.inDim }

// NumCols returns the number of modeled columns.
func (m *MADE) NumCols() int { return len(m.colSizes) }

// ColSizes returns the per-column domain sizes.
func (m *MADE) ColSizes() []int { return m.colSizes }

// Offsets returns each column block's start offset.
func (m *MADE) Offsets() []int { return m.offsets }

// OutputBias returns the bias of the output layer (1×InDim), exposed so
// callers can install informative priors on specific column blocks before
// training.
func (m *MADE) OutputBias() *tensor.Tensor { return m.layers[len(m.layers)-1].B }

// Forward runs the network on the autodiff graph; x is batch×InDim of
// (relaxed) one-hots, the result is batch×InDim of logits for every column
// block.
func (m *MADE) Forward(g *tensor.Graph, x *tensor.Node) *tensor.Node {
	h := x
	for i, l := range m.layers {
		h = l.Forward(g, h)
		if i != len(m.layers)-1 {
			h = g.ReLU(h)
		}
	}
	return h
}

// madeChain steps MADE through a progressive-sampling chain one degree
// slice at a time. A hidden unit of degree d reads only columns 0…d−1 (or,
// above the first layer, the units of degree ≤ d below it), and head i
// reads only the last layer's units of degree ≤ i. So step i computes the
// degree-i units of every layer — whose inputs were all sampled by steps
// 0…i−1 and never change later in the chain — and then head i. Each unit
// is computed once per chain, and each weight block it touches lies wholly
// inside the mask's support, so slicing Param(W) directly gives the same
// values and gradients as the masked full forward.
type madeChain struct {
	m    *MADE
	rows int
	acts [][]*tensor.Node // acts[l][d]: layer l's degree-d units, rows×count
	in   []*tensor.Node   // operand list scratch for ConcatCols
}

// NewChain allocates chain state sized for m.
func (m *MADE) NewChain() Chain {
	c := &madeChain{m: m, acts: make([][]*tensor.Node, len(m.layers)-1)}
	for l := range c.acts {
		c.acts[l] = make([]*tensor.Node, len(m.degEnd))
	}
	c.in = make([]*tensor.Node, 0, max(len(m.colSizes), len(m.degEnd)))
	return c
}

// Begin starts a chain of rows rows.
func (c *madeChain) Begin(rows int) {
	c.rows = rows
	for _, a := range c.acts {
		clear(a)
	}
}

// Col computes the degree-i units of every hidden layer, then head i.
func (c *madeChain) Col(g *tensor.Graph, i int, parts []*tensor.Node) *tensor.Node {
	m := c.m
	hidden := len(m.layers) - 1
	if i > 0 && m.degEnd[i] > m.degEnd[i-1] {
		lo, hi := m.degEnd[i-1], m.degEnd[i]
		for l, layer := range m.layers[:hidden] {
			var x *tensor.Node
			var width int
			if l == 0 {
				x, width = c.concat(g, parts[:i]), m.offsets[i]
			} else {
				x, width = c.concat(g, c.acts[l-1][1:i+1]), hi
			}
			w := g.SliceRows(g.SliceCols(g.Param(layer.W), lo, hi-lo), 0, width)
			b := g.SliceCols(g.Param(layer.B), lo, hi-lo)
			c.acts[l][i] = g.ReLU(g.AddRow(g.MatMul(x, w), b))
		}
	}
	out := m.layers[hidden]
	off, size := m.offsets[i], m.colSizes[i]
	b := g.SliceCols(g.Param(out.B), off, size)
	k := m.degEnd[i]
	if k == 0 {
		// No hidden unit has degree ≤ i (always so for column 0): the
		// logits are the output bias alone.
		return g.AddRow(g.Const(g.NewTensor(c.rows, size)), b)
	}
	h := c.concat(g, c.acts[hidden-1][1:i+1])
	w := g.SliceRows(g.SliceCols(g.Param(out.W), off, size), 0, k)
	return g.AddRow(g.MatMul(h, w), b)
}

// concat joins the non-nil nodes side by side (degrees without units
// leave nil slots); a single node is returned as is.
func (c *madeChain) concat(g *tensor.Graph, nodes []*tensor.Node) *tensor.Node {
	c.in = c.in[:0]
	for _, n := range nodes {
		if n != nil {
			c.in = append(c.in, n)
		}
	}
	if len(c.in) == 1 {
		return c.in[0]
	}
	return g.ConcatCols(c.in...)
}

// Params returns all trainable tensors.
func (m *MADE) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ColLogits slices the logits of column i out of a full output row.
func (m *MADE) ColLogits(out []float64, i int) []float64 {
	return out[m.offsets[i] : m.offsets[i]+m.colSizes[i]]
}

// madeInference holds per-goroutine scratch space for the inference-only
// forward pass, so sampling allocates nothing per tuple.
type madeInference struct {
	m    *MADE
	acts [][]float64
	x    []float64
}

// NewInference allocates scratch sized for m.
func (m *MADE) NewInference() Inference {
	b := &madeInference{m: m, x: make([]float64, m.inDim)}
	for _, l := range m.layers {
		b.acts = append(b.acts, make([]float64, l.W.Cols))
	}
	return b
}

// X returns the reusable input row of the buffer (length InDim). Callers
// zero and fill it between forward passes.
func (b *madeInference) X() []float64 { return b.x }

// Forward runs a single-row, allocation-free forward pass on X() and
// returns the full logits row (owned by the buffer, valid until the next
// call).
func (b *madeInference) Forward() []float64 {
	in := b.x
	for i, l := range b.m.layers {
		out := b.acts[i]
		l.forwardInto(out, in)
		if i != len(b.m.layers)-1 {
			for j, v := range out {
				if v < 0 {
					out[j] = 0
				}
			}
		}
		in = out
	}
	return in
}
