package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/ar"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/tensor"
)

// blockRows is the unit of the sampling contract. Sample i belongs to
// block i/blockRows, and every block reseeds its lanes from (Seed, block),
// so any goroutine can draw any block, in any order, into any shard. The
// size trades the cost of reseeding (one math/rand Seed per lane per
// block, about 0.9 ms for 64 lanes) against load balance on the smallest
// runs (a few thousand samples over two workers). It is a multiple of 64
// so default batches tile it. Changing it changes every generated database.
const blockRows = 1024

// numBlocks returns how many blocks k samples span.
func numBlocks(k int) int { return (k + blockRows - 1) / blockRows }

// blockRange returns block b's sample range [lo, hi) among k samples.
func blockRange(k, b int) (lo, hi int) { return b * blockRows, min((b+1)*blockRows, k) }

// workers resolves the sampling parallelism: Workers, or GOMAXPROCS.
func (o *GenOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// blockSampler draws whole blocks of samples. Each sampling goroutine owns
// one: a sampler and one rng per lane.
type blockSampler struct {
	g    *Generator
	seed int64
	s    join.TupleSampler
	bs   join.BatchTupleSampler // nil: one tuple at a time
	rngs []*rand.Rand
	prog *sampleProgress
}

func (g *Generator) newBlockSampler(newSampler func() join.TupleSampler, opts GenOptions, prog *sampleProgress) *blockSampler {
	lanes := min(max(opts.Batch, 1), blockRows)
	b := &blockSampler{g: g, seed: opts.Seed, s: newSampler(), rngs: make([]*rand.Rand, lanes), prog: prog}
	if bs, ok := b.s.(join.BatchTupleSampler); ok && lanes > 1 && bs.BatchCap() >= lanes {
		b.bs = bs
	}
	for l := range b.rngs {
		b.rngs[l] = rand.New(rand.NewSource(0))
	}
	return b
}

// draw fills dst with the leading len(dst)/NumCols rows of block: it
// reseeds lane l from ar.LaneSeed(ar.SplitSeed(Seed, block), l), advances
// the lanes in sweeps of one row each — through the batch kernel, or one
// tuple at a time for samplers without one, row r on lane r mod lanes
// either way — and sanitizes every row.
func (b *blockSampler) draw(block int, dst []int32) {
	ncols := b.g.Layout.NumCols()
	rows := len(dst) / ncols
	lanes := min(len(b.rngs), rows)
	base := ar.SplitSeed(b.seed, block)
	for l := 0; l < lanes; l++ {
		b.rngs[l].Seed(ar.LaneSeed(base, l))
	}
	for lo := 0; lo < rows; lo += lanes {
		n := min(lanes, rows-lo)
		sweep := dst[lo*ncols : (lo+n)*ncols]
		if b.bs != nil {
			b.bs.SampleFOJBatch(b.rngs[:n], sweep)
		} else {
			for i := 0; i < n; i++ {
				b.s.SampleFOJ(b.rngs[i], sweep[i*ncols:(i+1)*ncols])
			}
		}
		for i := 0; i < n; i++ {
			b.g.sanitize(sweep[i*ncols : (i+1)*ncols])
		}
		b.prog.add(n)
	}
}

// runParallel runs tasks [0, n) on up to workers goroutines, each claiming
// the next unclaimed task. Every goroutine beyond the caller's holds a
// kernel token, so sampling goroutines and the matmul kernels inside the
// samplers share one core budget: under a full budget the samplers win the
// tokens and their kernels run serially, which needs no synchronization
// per layer. newWorker builds one goroutine's state and returns its task
// function. The first error stops further claims and is returned, with the
// goroutine count (telemetry).
func runParallel(n, workers int, newWorker func() func(task int) error) (int, error) {
	phys := 1
	if want := min(workers, n); want > 1 {
		phys += tensor.AcquireKernelTokens(want - 1)
	}
	var next atomic.Int64
	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	run := func() {
		do := newWorker()
		for !failed.Load() {
			t := int(next.Add(1)) - 1
			if t >= n {
				return
			}
			if err := do(t); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for p := 1; p < phys; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	tensor.ReleaseKernelTokens(phys - 1)
	return phys, firstErr
}

// sampleProgress reports in-flight sampling progress. It exists only when
// a hook asks for it (nil otherwise; every method is then a no-op), a CAS
// throttle picks one reporting goroutine at a time, and nothing feeds back
// into scheduling, so it never changes a sample.
type sampleProgress struct {
	p     *obs.Progress
	hooks *obs.Hooks
}

func newSampleProgress(hooks *obs.Hooks, k int) *sampleProgress {
	if !hooks.WantsGenProgress() {
		return nil
	}
	return &sampleProgress{p: obs.NewProgress(int64(k), 2*time.Second), hooks: hooks}
}

func (sp *sampleProgress) add(n int) {
	if sp == nil {
		return
	}
	sp.p.Add(int64(n))
	if sp.p.ShouldEmit(100 * time.Millisecond) {
		s := sp.p.Snapshot()
		sp.hooks.GenProgress(obs.GenProgress{
			Phase: "sample", Done: int(s.Done), Total: int(s.Total),
			Rate: s.Rate, ETA: s.ETA,
		})
	}
}

// finish emits the terminal event, so observers always see done == total.
func (sp *sampleProgress) finish() {
	if sp == nil {
		return
	}
	s := sp.p.Snapshot()
	sp.hooks.GenProgress(obs.GenProgress{
		Phase: "sample", Done: int(s.Done), Total: int(s.Total), Rate: s.Rate,
	})
}

// DrawSamples runs the sampling phase on its own: k sanitized FOJ samples,
// flattened row-major (k × NumCols bin codes), without materializing
// tables. Generate composes it with Materialize; benchmarks and diagnostic
// tools call it directly. Blocks are spread over up to Workers goroutines,
// and the result is the same for any Workers (see GenOptions.Batch).
func (g *Generator) DrawSamples(newSampler func() join.TupleSampler, k int, opts GenOptions) []int32 {
	span := opts.Span.Child("sample")
	defer span.End()
	start := time.Now()
	k = max(k, 0)
	ncols := g.Layout.NumCols()
	flat := make([]int32, k*ncols)
	span.SetAttr("tuples", k)
	span.SetAttr("workers", opts.workers())
	span.SetAttr("batch", max(opts.Batch, 1))

	prog := newSampleProgress(opts.Hooks, k)
	var batched atomic.Bool
	phys, _ := runParallel(numBlocks(k), opts.workers(), func() func(int) error {
		bs := g.newBlockSampler(newSampler, opts, prog)
		batched.Store(bs.bs != nil)
		return func(b int) error {
			lo, hi := blockRange(k, b)
			bs.draw(b, flat[lo*ncols:hi*ncols])
			return nil
		}
	})
	prog.finish()
	span.SetAttr("batched", batched.Load())
	span.SetAttr("goroutines", phys)
	opts.Hooks.GenPhase(obs.GenPhase{Phase: "sample", Tuples: k, Wall: time.Since(start)})
	return flat
}
