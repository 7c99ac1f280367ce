package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"sam/internal/ar"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/relation"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// workers is the fixed worker count for training, generation and model
// evaluation. The program's outputs depend on it, so fixing it makes every
// Q-Error repeat exactly for a given seed on any machine.
const workers = 2

// sizes fixes every input size of the three workloads.
type sizes struct {
	CensusRows, CensusTrainQ int
	DMVRows, DMVTrainQ       int
	TestQ                    int // held-out queries per single-relation dataset
	DPSEpochs                int

	IMDBTitles, IMDBTrainQ int
	JOBLightQ              int
	IMDBEpochs             int

	Hidden, Batch int
	LR            float64
	GenBatch      int // sampling lanes per worker
	ModelSamples  int // Monte-Carlo chains per model estimate

	// GaM* and Stream* size the imdb-gam and imdb-stream generation: the
	// hidden database is scaled, every table by the same factor, to Rows
	// rows in total, and Samples full-outer-join tuples are drawn
	// (imdb-stream in streamShards shards).
	GaMRows, GaMSamples       int
	StreamRows, StreamSamples int

	SetupReps int // set-ups per run; setup_s is their median
}

// benchSizes are the sizes the benchmark runs at. The single-relation
// datasets and query counts are sambench's quick scale; epochs and
// generation sizes are cut so one run stays within its time budget on a
// 2-core machine (README.md gives the measured split).
func benchSizes() sizes {
	return sizes{
		CensusRows: 8000, CensusTrainQ: 1200,
		DMVRows: 6000, DMVTrainQ: 700,
		TestQ:     250,
		DPSEpochs: 2,

		IMDBTitles: 1200, IMDBTrainQ: 1200,
		JOBLightQ:  200,
		IMDBEpochs: 4,

		Hidden: 40, Batch: 64, LR: 5e-3,
		GenBatch: 64, ModelSamples: 32,

		GaMRows: 60_000, GaMSamples: 120_000,
		StreamRows: 100_000, StreamSamples: 200_000,

		SetupReps: 3,
	}
}

// hiddenSeed fixes the hidden databases. Like the paper's datasets they
// are the same in every run; --seed draws the query workloads — SAM's
// input — and every random choice of training, generation and
// evaluation. Fixed data keeps the work per run, and the Q-Errors, from
// swinging with the data a seed happens to draw.
const hiddenSeed = 1

// Seed streams: every random choice of a run derives from --seed (or, for
// the hidden databases, hiddenSeed) through one of these.
const (
	streamCensusData = iota + 1
	streamCensusQueries
	streamDMVData
	streamDMVQueries
	streamIMDBData
	streamIMDBQueries
	streamTrain
	streamGenerate
	streamEval
)

func subSeed(seed int64, stream int) int64 { return ar.SplitSeed(seed, stream) }

// dataset is one hidden database with its labeled workloads.
type dataset struct {
	name   string
	orig   *relation.Schema
	layout *join.Layout
	pop    float64              // |T| or |FOJ|
	train  []workload.CardQuery // the input workload; all of it is evaluated
	test   []workload.CardQuery
}

// scaledSizes scales every table of the hidden database by the factor f
// that brings the total to rows, and returns the target sizes and f.
func (ds *dataset) scaledSizes(rows int) (map[string]int, float64) {
	f := float64(rows) / float64(ds.orig.TotalRows())
	out := map[string]int{}
	for _, t := range ds.orig.Tables {
		out[t.Name] = int(math.Round(f * float64(t.NumRows())))
	}
	return out, f
}

// digest folds the dataset and its labels.
func (ds *dataset) digest(d *digest) {
	d.schema(ds.orig)
	for _, qs := range [][]workload.CardQuery{ds.train, ds.test} {
		for _, q := range qs {
			d.str(q.Query.String())
			d.u64(uint64(q.Card))
		}
	}
}

// label runs engine.Label under a span.
func (r *runner) label(parent int64, db *relation.Schema, qs []workload.Query) []workload.CardQuery {
	sp := r.tr.begin("engine.label", parent)
	defer r.tr.end(sp)
	return engine.Label(db, qs)
}

// singleDataset synthesizes a single-relation dataset and its train and
// test workloads.
func (r *runner) singleDataset(parent int64, name string, gen func(int64, int) *relation.Schema,
	rows, trainQ int, dataStream, queryStream int) *dataset {
	sp := r.tr.begin("datagen", parent)
	orig := gen(subSeed(hiddenSeed, dataStream), rows)
	r.tr.end(sp)

	sp = r.tr.begin("workload.gen", parent)
	rng := rand.New(rand.NewSource(subSeed(r.seed, queryStream)))
	opts := workload.DefaultSingleRelationOptions()
	train := workload.GenerateSingleRelation(rng, orig.Tables[0], trainQ, opts)
	test := workload.GenerateSingleRelation(rng, orig.Tables[0], r.sz.TestQ, opts)
	r.tr.end(sp)

	ds := &dataset{name: name, orig: orig, layout: join.NewLayout(orig), pop: float64(orig.Tables[0].NumRows())}
	ds.train = r.label(parent, orig, train)
	ds.test = r.label(parent, orig, test)
	return ds
}

// imdbDataset synthesizes the IMDB-like star schema, its training
// workload, and the JOB-light-style test queries (all with nonempty
// results, like JOB-light).
func (r *runner) imdbDataset(parent int64) *dataset {
	sp := r.tr.begin("datagen", parent)
	orig := datagen.IMDB(subSeed(hiddenSeed, streamIMDBData), r.sz.IMDBTitles)
	r.tr.end(sp)

	rng := rand.New(rand.NewSource(subSeed(r.seed, streamIMDBQueries)))
	sp = r.tr.begin("workload.gen", parent)
	train := workload.GenerateMultiRelation(rng, orig, r.sz.IMDBTrainQ, workload.DefaultMultiRelationOptions())
	r.tr.end(sp)

	sp = r.tr.begin("engine.foj_size", parent)
	pop := float64(engine.FOJSize(orig))
	r.tr.end(sp)
	ds := &dataset{name: "imdb", orig: orig, layout: join.NewLayout(orig), pop: pop}
	ds.train = r.label(parent, orig, train)
	for len(ds.test) < r.sz.JOBLightQ {
		sp = r.tr.begin("workload.gen", parent)
		batch := jobLightQueries(rng, orig, r.sz.JOBLightQ)
		r.tr.end(sp)
		for _, cq := range r.label(parent, orig, batch) {
			if cq.Card > 0 && len(ds.test) < r.sz.JOBLightQ {
				ds.test = append(ds.test, cq)
			}
		}
	}
	return ds
}

// jobLightQueries draws JOB-light-style queries: title joined with one to
// all of its FK relations, one predicate on title, and one on each joined
// relation with probability 1/2.
func jobLightQueries(rng *rand.Rand, s *relation.Schema, n int) []workload.Query {
	var fkTables []string
	for _, t := range s.Tables {
		if t.Parent != "" {
			fkTables = append(fkTables, t.Name)
		}
	}
	ops := []workload.Op{workload.LE, workload.GE, workload.EQ}
	pred := func(t *relation.Table) workload.Predicate {
		col := t.Cols[rng.Intn(len(t.Cols))]
		return workload.Predicate{Table: t.Name, Column: col.Name,
			Op: ops[rng.Intn(len(ops))], Code: col.Data[rng.Intn(t.NumRows())]}
	}
	queries := make([]workload.Query, 0, n)
	for len(queries) < n {
		q := workload.Query{Tables: []string{"title"}}
		for _, pi := range rng.Perm(len(fkTables))[:1+rng.Intn(len(fkTables))] {
			q.Tables = append(q.Tables, fkTables[pi])
		}
		q.Preds = append(q.Preds, pred(s.Table("title")))
		for _, name := range q.Tables[1:] {
			if rng.Float64() < 0.5 {
				q.Preds = append(q.Preds, pred(s.Table(name)))
			}
		}
		queries = append(queries, q)
	}
	return queries
}

// scaleTruth multiplies every recorded cardinality by f. Every table of a
// generated database is f times its hidden size, so fanouts stay put and
// join cardinalities scale by f too.
func scaleTruth(qs []workload.CardQuery, f float64) []workload.CardQuery {
	out := make([]workload.CardQuery, len(qs))
	for i, q := range qs {
		out[i] = q
		out[i].Card = int64(math.Round(float64(q.Card) * f))
	}
	return out
}

// trainConfig is the DPS training configuration for a given epoch count.
func (r *runner) trainConfig(epochs int) ar.TrainConfig {
	cfg := ar.DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.BatchSize = r.sz.Batch
	cfg.LR = r.sz.LR
	cfg.Model.Hidden = r.sz.Hidden
	cfg.Model.Seed = subSeed(r.seed, streamTrain)
	cfg.Seed = subSeed(r.seed, streamTrain)
	cfg.Workers = workers
	return cfg
}

// train runs ar.Train under an ar.train span; the span's hooks record
// every step and the final epoch loss.
func (r *runner) train(parent int64, ds *dataset, epochs int) (*ar.Model, error) {
	// The training workers keep both cores busy, so they hold the matmul
	// kernels' spare-goroutine budget while they run, as the sampling
	// workers do. Otherwise a kernel that wins a free token splits its rows
	// by timing, and the split changes the low bits of the trained model.
	held := tensor.AcquireKernelTokens(runtime.GOMAXPROCS(0))
	defer tensor.ReleaseKernelTokens(held)
	sp := r.tr.begin("ar.train", parent)
	defer r.tr.end(sp)
	cfg := r.trainConfig(epochs)
	cfg.Hooks = r.hooks(sp, false)
	m, err := ar.Train(ds.layout, &workload.Workload{Queries: ds.train}, ds.pop, cfg)
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", ds.name, err)
	}
	r.tr.attr(sp, "chains", float64(epochs*len(ds.train)*max(cfg.ProgressiveSamples, 1)))
	return m, nil
}
