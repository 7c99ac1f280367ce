package ar

import (
	"fmt"
	"math"
	"math/rand"

	"sam/internal/join"
	"sam/internal/nn"
	"sam/internal/relation"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// Model is a trained (or initialized) SAM model: a MADE network over the
// layout's columns after discretization, plus the population size it is
// normalized against (|T| for a single relation, |FOJ| for a join schema).
type Model struct {
	Layout     *join.Layout
	Disc       []*Discretizer
	Net        nn.Backbone
	Population float64
	Cfg        Config
}

// Config controls model construction.
type Config struct {
	Hidden       int  // hidden layer width (MADE) / feed-forward width (Transformer)
	HiddenLayers int  // number of hidden layers / transformer blocks
	Intervalize  bool // intervalize numeric content columns from workload constants
	Seed         int64

	// Arch selects the autoregressive backbone: "made" (default) or
	// "transformer" (§4.1: SAM can be instantiated by either).
	Arch string
	// DModel and Heads size the transformer backbone; ignored for MADE.
	DModel int
	Heads  int
}

// DefaultConfig returns a CPU-sized MADE configuration.
func DefaultConfig() Config {
	return Config{Hidden: 64, HiddenLayers: 2, Intervalize: true, Seed: 1, Arch: "made"}
}

// DefaultTransformerConfig returns a CPU-sized transformer configuration.
func DefaultTransformerConfig() Config {
	return Config{Hidden: 64, HiddenLayers: 2, Intervalize: true, Seed: 1,
		Arch: "transformer", DModel: 32, Heads: 2}
}

// NewModel builds discretizers from the workload's predicate constants and
// initializes the MADE backbone. population is |T| (single relation) or the
// full-outer-join size (multi-relation).
func NewModel(layout *join.Layout, queries []workload.CardQuery, population float64, cfg Config) *Model {
	if population <= 0 {
		panic("ar: population must be positive")
	}
	// Collect distinct constants per content column for intervalization.
	constants := make(map[int][]int32)
	if cfg.Intervalize {
		for qi := range queries {
			q := &queries[qi].Query
			for _, p := range q.Preds {
				idx := layout.ContentIndex(p.Table, p.Column)
				if layout.Cols[idx].Rel != relation.Numeric {
					continue
				}
				if p.Op == workload.IN {
					constants[idx] = append(constants[idx], p.Codes...)
				} else {
					constants[idx] = append(constants[idx], p.Code)
				}
			}
		}
	}
	disc := make([]*Discretizer, layout.NumCols())
	colSizes := make([]int, layout.NumCols())
	for i, c := range layout.Cols {
		if cs, ok := constants[i]; ok && len(cs) > 0 {
			disc[i] = NewInterval(c.Domain, cs)
		} else {
			disc[i] = NewIdentity(c.Domain)
		}
		colSizes[i] = disc[i].Bins()
	}
	net := buildBackbone(cfg, colSizes)
	// Heavy-tail prior on fanout columns: initialize the output bias of a
	// fanout bin with weight value v to −2·ln(max(v,1)), i.e.
	// P(fanout=v) ∝ 1/v² before any training (the absent bin and fanout 1
	// start equally likely). Fanout bins are never filtered directly, so
	// without a prior an undertrained model samples huge fanouts uniformly,
	// which the Group-and-Merge step would amplify into explosive join
	// sizes.
	bias := net.OutputBias()
	for i, c := range layout.Cols {
		if c.Kind != join.Fanout {
			continue
		}
		off := net.Offsets()[i]
		for b, v := range c.WeightVals {
			bias.Data[off+b] = -2 * math.Log(v)
		}
	}
	return &Model{Layout: layout, Disc: disc, Net: net, Population: population, Cfg: cfg}
}

// buildBackbone constructs the configured autoregressive network; the
// result is a pure function of cfg and the column sizes, which is what
// makes Save/Load reconstruction possible.
func buildBackbone(cfg Config, colSizes []int) nn.Backbone {
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch cfg.Arch {
	case "", "made":
		return nn.NewMADE(rng, colSizes, cfg.Hidden, cfg.HiddenLayers)
	case "transformer":
		dModel, heads := cfg.transformerShape()
		return nn.NewTransformer(rng, colSizes, dModel, heads, cfg.Hidden, cfg.HiddenLayers)
	default:
		panic(fmt.Sprintf("ar: unknown architecture %q", cfg.Arch))
	}
}

// transformerShape returns the transformer's model width and head count;
// nonpositive fields take the defaults 32 and 2.
func (cfg Config) transformerShape() (dModel, heads int) {
	dModel, heads = cfg.DModel, cfg.Heads
	if dModel <= 0 {
		dModel = 32
	}
	if heads <= 0 {
		heads = 2
	}
	return dModel, heads
}

// validate reports a configuration buildBackbone cannot build: the
// errors Load returns for a model file where NewModel would panic.
func (cfg Config) validate() error {
	if cfg.Hidden <= 0 || cfg.HiddenLayers <= 0 {
		return fmt.Errorf("ar: hidden width %d and layer count %d must be positive", cfg.Hidden, cfg.HiddenLayers)
	}
	switch cfg.Arch {
	case "", "made":
	case "transformer":
		if dModel, heads := cfg.transformerShape(); dModel%heads != 0 {
			return fmt.Errorf("ar: transformer width %d is not a multiple of its %d heads", dModel, heads)
		}
	default:
		return fmt.Errorf("ar: unknown architecture %q", cfg.Arch)
	}
	return nil
}

// Spec is a query compiled into the model's bin space: one fractional mask
// per constrained column (nil means unconstrained) plus the fanout columns
// whose values divide the estimate (fanout scaling / inverse probability
// weighting for the query's table set).
type Spec struct {
	Masks      [][]float64
	Downweight []bool // per model column
}

// Compile translates a validated query into a Spec. It returns an error if
// the predicates are unsatisfiable in bin space (zero mass everywhere on
// some column).
func (m *Model) Compile(q *workload.Query) (*Spec, error) {
	l := m.Layout
	spec := &Spec{
		Masks:      make([][]float64, l.NumCols()),
		Downweight: make([]bool, l.NumCols()),
	}
	// Group predicates by model column.
	byCol := make(map[int][]workload.Predicate)
	for _, p := range q.Preds {
		idx := l.ContentIndex(p.Table, p.Column)
		byCol[idx] = append(byCol[idx], p)
	}
	for idx, preds := range byCol {
		mask := make([]float64, m.Disc[idx].Bins())
		if !m.Disc[idx].maskInto(mask, preds, l.Cols[idx].Domain) {
			return nil, fmt.Errorf("ar: query unsatisfiable on %s", l.Cols[idx].Name())
		}
		spec.Masks[idx] = mask
	}
	for _, idx := range l.PresenceConstraints(q.Tables) {
		if spec.Masks[idx] != nil {
			continue // content predicates never target fanout columns
		}
		mask := make([]float64, m.Disc[idx].Bins())
		for b := 1; b < len(mask); b++ {
			mask[b] = 1
		}
		spec.Masks[idx] = mask
	}
	for _, idx := range l.DownweightColumns(q.Tables) {
		spec.Downweight[idx] = true
	}
	return spec, nil
}

// Sampler wraps per-goroutine inference scratch space; it implements
// join.TupleSampler, emitting model bin codes.
type Sampler struct {
	m     *Model
	buf   nn.Inference
	probs []float64
}

// NewSampler returns a sampler with its own buffers; samplers are not safe
// for concurrent use, create one per goroutine.
func (m *Model) NewSampler() *Sampler {
	maxBins := 0
	for _, d := range m.Disc {
		if d.Bins() > maxBins {
			maxBins = d.Bins()
		}
	}
	return &Sampler{m: m, buf: m.Net.NewInference(), probs: make([]float64, maxBins)}
}

// SampleFOJ draws one tuple from the modeled joint distribution by
// ancestral sampling (Algorithm 1, lines 3–7). dst receives bin codes per
// layout column.
func (s *Sampler) SampleFOJ(rng *rand.Rand, dst []int32) {
	m := s.m
	if len(dst) != m.Layout.NumCols() {
		panic("ar: SampleFOJ dst has wrong length")
	}
	x := s.buf.X()
	for i := range x {
		x[i] = 0
	}
	for i := range m.Layout.Cols {
		out := s.buf.Forward()
		logits := m.Net.ColLogits(out, i)
		probs := s.probs[:len(logits)]
		tensor.SoftmaxRowInto(probs, logits)
		bin := sampleCategorical(rng, probs, nil)
		dst[i] = int32(bin)
		x[m.Net.Offsets()[i]+bin] = 1
	}
}

// Estimate runs progressive-sampling cardinality estimation for q with the
// given number of Monte-Carlo samples, including fanout scaling for join
// queries.
func (m *Model) Estimate(rng *rand.Rand, q *workload.Query, samples int) (float64, error) {
	spec, err := m.Compile(q)
	if err != nil {
		return 0, err
	}
	return m.EstimateSpec(rng, spec, samples), nil
}

// EstimateSpec is Estimate for a precompiled spec. It allocates fresh
// inference buffers per call; hot loops should hold a Sampler (or
// BatchSampler) and call its EstimateSpec instead.
func (m *Model) EstimateSpec(rng *rand.Rand, spec *Spec, samples int) float64 {
	return m.NewSampler().EstimateSpec(rng, spec, samples)
}

// EstimateSpec runs progressive-sampling estimation for a precompiled spec
// on the sampler's reusable buffers: the warm path allocates nothing, so a
// per-goroutine sampler amortizes the inference scratch over a whole
// workload of estimates.
func (s *Sampler) EstimateSpec(rng *rand.Rand, spec *Spec, samples int) float64 {
	m := s.m
	if samples <= 0 {
		samples = 1
	}
	// Wildcard skipping: nothing beyond the last constrained or
	// downweighted column affects the estimate.
	lastNeeded := 0
	for i := range m.Layout.Cols {
		if spec.Masks[i] != nil || spec.Downweight[i] {
			lastNeeded = i
		}
	}
	var total float64
	for it := 0; it < samples; it++ {
		x := s.buf.X()
		for i := range x {
			x[i] = 0
		}
		sel := 1.0
		for i := 0; i <= lastNeeded; i++ {
			out := s.buf.Forward()
			logits := m.Net.ColLogits(out, i)
			probs := s.probs[:len(logits)]
			tensor.SoftmaxRowInto(probs, logits)
			mask := spec.Masks[i]
			if mask != nil {
				var p float64
				for b, pv := range probs {
					p += pv * mask[b]
				}
				sel *= p
				if sel == 0 {
					break
				}
			}
			bin := sampleCategorical(rng, probs, mask)
			if spec.Downweight[i] {
				sel /= m.Layout.Cols[i].WeightVals[bin]
			}
			x[m.Net.Offsets()[i]+bin] = 1
		}
		total += sel
	}
	return m.Population * total / float64(samples)
}

// sampleCategorical draws an index proportional to probs (optionally
// reweighted by mask). It falls back to the argmax of the weights if
// rounding leaves residual mass.
func sampleCategorical(rng *rand.Rand, probs, mask []float64) int {
	var sum float64
	for b, p := range probs {
		if mask != nil {
			p *= mask[b]
		}
		sum += p
	}
	return drawFromMass(rng, probs, mask, sum)
}

// drawFromMass is sampleCategorical's CDF walk with the total mass supplied
// by the caller. The batched sampler fuses the accumulation into the
// softmax-exp pass (tensor.ExpRowMass) and the batched estimator into its
// selectivity update, so neither re-sums the row just to draw from it. mass
// must equal the in-order sum of probs×mask for the draw to be bit-identical
// to sampleCategorical's.
func drawFromMass(rng *rand.Rand, probs, mask []float64, mass float64) int {
	if mass <= 0 {
		// Degenerate: uniform over positive-mask bins, else uniform.
		if mask != nil {
			var cands []int
			for b, mv := range mask {
				if mv > 0 {
					cands = append(cands, b)
				}
			}
			if len(cands) > 0 {
				return cands[rng.Intn(len(cands))]
			}
		}
		return rng.Intn(len(probs))
	}
	u := rng.Float64() * mass
	var acc float64
	best := len(probs) - 1
	for b, p := range probs {
		if mask != nil {
			p *= mask[b]
		}
		acc += p
		if u <= acc {
			return b
		}
	}
	return best
}
