package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
)

// StreamOptions configures the sharded, bounded-memory generation path.
// It extends GenOptions under the same sampling contract: a shard is a
// range of whole sample blocks, so the shards of a run, concatenated, hold
// exactly the samples DrawSamples returns for the same (Seed, Batch, k),
// whatever Shards or Workers. Workers only parallelize across shards.
type StreamOptions struct {
	GenOptions

	// Shards is the number of sample shard files; 0 derives one shard per
	// defaultShardRows rows. Shard boundaries fall on block boundaries, so
	// there are at most as many shards as blocks. The count splits the
	// samples over files and never changes a sample.
	Shards int
	// OutDir receives the shard sample files (subdirectory "shards") and,
	// via GenerateStream, one CSV per generated table.
	OutDir string
	// Partitions is the spill fan-out of the external group-and-merge;
	// 0 defaults to 64. Part of the merge's determinism coordinates (it
	// fixes the group traversal order), not of the sampling contract.
	Partitions int
	// SpillDir holds the merge's temporary partition files; defaults to
	// OutDir/.spill and is removed when the merge finishes.
	SpillDir string
	// KeepSamples leaves the shard sample files in place after
	// GenerateStream materializes the tables (they are removed otherwise).
	KeepSamples bool
}

// DefaultStreamOptions mirrors DefaultGenOptions for the streaming path.
func DefaultStreamOptions(seed int64, outDir string) StreamOptions {
	return StreamOptions{GenOptions: DefaultGenOptions(seed), OutDir: outDir}
}

// defaultShardRows sizes auto-derived shards (a whole number of blocks).
// Deliberately a function of the requested row count only — never of the
// machine — so default runs split the same way on every host.
const defaultShardRows = 1 << 18

// blockBuffers is the depth of each shard's free-buffer pool: the sampler
// stalls (backpressure) once this many blocks are in flight to the writer.
const blockBuffers = 3

// shardCount resolves the shard count for k rows.
func (o *StreamOptions) shardCount(k int) int {
	if o.Shards > 0 {
		return min(o.Shards, max(numBlocks(k), 1))
	}
	return max((k+defaultShardRows-1)/defaultShardRows, 1)
}

// shardBlocks returns shard s's block range under S balanced shards of k
// rows.
func shardBlocks(k, S, s int) (lo, hi int) {
	nb := numBlocks(k)
	return s * nb / S, (s + 1) * nb / S
}

// ShardSet describes the sample shards one run produced: where they are,
// how many rows each holds, and the sampling coordinates needed to
// regenerate any of them independently.
type ShardSet struct {
	Dir   string
	NCols int
	Seed  int64
	Batch int
	Paths []string
	Rows  []int
	Total int
	// Wall is the sampling phase's wall time (telemetry for scale
	// benchmarks).
	Wall time.Duration
}

// Bytes sums the on-disk size of the shard files.
func (s *ShardSet) Bytes() int64 {
	var n int64
	for _, p := range s.Paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// OpenShardSet rebuilds a ShardSet from a directory of shard files
// (sorted by shard index); used to re-merge previously sampled shards.
func OpenShardSet(dir string) (*ShardSet, error) {
	set := &ShardSet{Dir: dir}
	for shard := 0; ; shard++ {
		path := filepath.Join(dir, relation.ShardFileName(shard))
		r, err := relation.OpenShardFile(path)
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			return nil, err
		}
		rows := int(r.Rows())
		if set.NCols == 0 {
			set.NCols = r.NCols()
			set.Seed = r.Seed()
		} else if r.NCols() != set.NCols {
			//lint:allow errpropagate read-only close on an error path; the column mismatch dominates
			r.Close()
			return nil, fmt.Errorf("core: shard %d has %d columns, want %d", shard, r.NCols(), set.NCols)
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		if rows < 0 {
			return nil, fmt.Errorf("core: shard %d has no recorded row count", shard)
		}
		set.Paths = append(set.Paths, path)
		set.Rows = append(set.Rows, rows)
		set.Total += rows
	}
	if len(set.Paths) == 0 {
		//lint:allow closeleak the loop only breaks when OpenShardFile failed, so r is nil here; every opened reader was closed in the loop body
		return nil, fmt.Errorf("core: no shard files in %s", dir)
	}
	return set, nil
}

// SampleShards draws k sanitized FOJ samples into shardCount binary shard
// files under opts.OutDir/shards. Shards are sampled by up to
// opts.Workers goroutines (one shard at a time each), and each shard
// streams block by block to its writer, so peak memory is
// O(workers × blockRows × NumCols) regardless of k. Shard s holds the
// samples of its block range, exactly as DrawSamples would draw them.
func (g *Generator) SampleShards(newSampler func() join.TupleSampler, k int, opts StreamOptions) (*ShardSet, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: sample count %d must be positive", k)
	}
	span := opts.Span.Child("sample")
	defer span.End()
	start := time.Now()

	S := opts.shardCount(k)
	dir := filepath.Join(opts.OutDir, "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: shard dir: %w", err)
	}
	span.SetAttr("tuples", k)
	span.SetAttr("shards", S)
	span.SetAttr("workers", min(opts.workers(), S))
	span.SetAttr("batch", max(opts.Batch, 1))

	set := &ShardSet{Dir: dir, NCols: g.Layout.NumCols(), Seed: opts.Seed, Batch: max(opts.Batch, 1),
		Paths: make([]string, S), Rows: make([]int, S), Total: k}
	prog := newSampleProgress(opts.Hooks, k)
	phys, err := runParallel(S, opts.workers(), func() func(int) error {
		bs := g.newBlockSampler(newSampler, opts.GenOptions, prog)
		return func(si int) error {
			rows, path, err := g.sampleOneShard(bs, k, S, si, dir, span, opts)
			if err != nil {
				return fmt.Errorf("core: shard %d: %w", si, err)
			}
			set.Paths[si], set.Rows[si] = path, rows
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	prog.finish()
	set.Wall = time.Since(start)
	span.SetAttr("goroutines", phys)
	opts.Hooks.GenPhase(obs.GenPhase{Phase: "sample", Tuples: k, Wall: set.Wall})
	return set, nil
}

// SampleShard regenerates a single shard of a (Seed, k, shardCount, Batch)
// configuration, bit-identical to the same shard of a full SampleShards
// run — the contract that lets a lost or corrupted shard be rebuilt
// without touching the others. The shard file is written under dir (a
// shard directory, e.g. ShardSet.Dir).
func (g *Generator) SampleShard(newSampler func() join.TupleSampler, k, shard int, dir string, opts StreamOptions) (string, int, error) {
	S := opts.shardCount(k)
	if shard < 0 || shard >= S {
		return "", 0, fmt.Errorf("core: shard %d outside [0,%d)", shard, S)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("core: shard dir: %w", err)
	}
	bs := g.newBlockSampler(newSampler, opts.GenOptions, nil)
	rows, path, err := g.sampleOneShard(bs, k, S, shard, dir, opts.Span, opts)
	if err != nil {
		return "", 0, fmt.Errorf("core: shard %d: %w", shard, err)
	}
	return path, rows, nil
}

// sampleOneShard draws shard's blocks and streams them to the shard file
// through a bounded pipeline: the sampler fills pooled block buffers and
// stalls while blockBuffers of them are in flight, the writer goroutine
// drains them in order.
//
// Telemetry (the per-shard span under psp, the stream_pass "shard" event
// with its backpressure wait) is strictly observational: the sampling
// order, rng consumption, and shard bytes are identical with observers on
// or off, and the per-block wait clock only runs when a hook listens.
func (g *Generator) sampleOneShard(bs *blockSampler, k, S, shard int, dir string, psp *obs.Span, opts StreamOptions) (int, string, error) {
	ncols := g.Layout.NumCols()
	b0, b1 := shardBlocks(k, S, shard)
	rows := min(b1*blockRows, k) - b0*blockRows

	shardStart := time.Now()
	sp := psp.Child("shard")
	sp.SetAttr("shard", shard)
	sp.SetAttr("rows", rows)
	defer sp.End()
	wantPass := opts.Hooks.WantsStreamPass()

	w, err := relation.CreateShardFile(dir, shard, ncols, opts.Seed)
	if err != nil {
		return 0, "", err
	}

	full := make(chan []int32, blockBuffers)
	free := make(chan []int32, blockBuffers)
	for i := 0; i < blockBuffers; i++ {
		free <- make([]int32, blockRows*ncols)
	}
	var writeFailed atomic.Bool
	writeErr := make(chan error, 1)
	go func() {
		var err error
		for buf := range full {
			if err == nil {
				if err = w.WriteRows(buf); err != nil {
					writeFailed.Store(true)
				}
			}
			free <- buf[:cap(buf)]
		}
		writeErr <- err
	}()

	// bpWait accumulates time blocked on the bounded pipeline (all
	// blockBuffers buffers in flight to the writer) — the backpressure
	// signal behind stream_backpressure_wait_seconds. The clock only runs
	// when a StreamPass hook listens; the channel protocol is identical
	// either way.
	var bpWait time.Duration
	takeFree := func() []int32 {
		if !wantPass {
			return <-free
		}
		select {
		case buf := <-free:
			return buf
		default:
		}
		waitStart := time.Now()
		buf := <-free
		bpWait += time.Since(waitStart)
		return buf
	}
	for b := b0; b < b1 && !writeFailed.Load(); b++ {
		lo, hi := blockRange(k, b)
		buf := takeFree()[:(hi-lo)*ncols]
		bs.draw(b, buf)
		full <- buf
	}
	close(full)
	err = <-writeErr
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, "", err
	}
	if wantPass {
		sp.SetAttr("backpressure_us", bpWait.Microseconds())
		opts.Hooks.StreamPass(obs.StreamPass{
			Pass: "shard", Shard: shard,
			RecordsOut:       int64(rows),
			BytesWritten:     4 * int64(rows) * int64(ncols),
			BackpressureWait: bpWait,
			Wall:             time.Since(shardStart),
		})
	}
	return rows, w.Path(), nil
}
