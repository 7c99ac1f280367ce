package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/relation"
	"sam/internal/workload"
)

// bench is one workload: a set-up that builds its inputs, the timed
// pipeline from workload in hand to database produced, and an evaluation
// that checks the produced database and measures its Q-Errors.
type bench interface {
	// setup returns a digest of everything it built; repetitions must
	// agree.
	setup(r *runner, root int64) (uint64, error)
	pipeline(r *runner, root int64) (*output, error)
	evaluate(r *runner, root int64, out *output) (*qerrors, error)
}

// output is what one pipeline iteration produced.
type output struct {
	dbs     []*relation.Schema // in-memory databases, one per dataset
	models  []*ar.Model        // models trained inside the pipeline
	stream  *core.StreamResult // imdb-stream only
	rows    int                // rows emitted
	genWall time.Duration      // sampling plus materialization
	digest  uint64             // fingerprint of the produced database (and models)
}

// qerrors are the evaluated Q-Errors of one run.
type qerrors struct {
	input, test, model []float64
}

func (q *qerrors) add(o *qerrors) {
	q.input = append(q.input, o.input...)
	q.test = append(q.test, o.test...)
	q.model = append(q.model, o.model...)
}

func newBench(name string) (bench, error) {
	switch name {
	case "dps-train":
		return &dpsBench{}, nil
	case "imdb-gam":
		return &imdbBench{}, nil
	case "imdb-stream":
		return &imdbBench{stream: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dps-train, imdb-gam or imdb-stream)", name)
}

// generate runs the in-memory generation path, DrawSamples then
// Materialize with Group-and-Merge, under core.sample and core.materialize
// spans.
func (r *runner) generate(parent int64, m *ar.Model, targets map[string]int, k int) (*relation.Schema, time.Duration, error) {
	gen, err := core.FromModel(m, targets)
	if err != nil {
		return nil, 0, err
	}
	opts := core.DefaultGenOptions(subSeed(r.seed, streamGenerate))
	opts.Workers = workers
	opts.Batch = r.sz.GenBatch
	start := time.Now()
	sp := r.tr.begin("core.sample", parent)
	opts.Hooks = r.hooks(sp, false)
	flat := gen.DrawSamples(core.ModelSampler(m, opts.Batch), k, opts)
	r.tr.attr(sp, "tuples", float64(k))
	r.tr.end(sp)

	sp = r.tr.begin("core.materialize", parent)
	opts.Hooks = r.hooks(sp, false)
	db, err := gen.Materialize(flat, opts)
	r.tr.end(sp)
	return db, time.Since(start), err
}

// modelQErrors runs ar.EvalWorkload on the hidden-database queries.
func (r *runner) modelQErrors(parent int64, m *ar.Model, qs []workload.CardQuery) []float64 {
	sp := r.tr.begin("ar.eval", parent)
	defer r.tr.end(sp)
	r.tr.attr(sp, "queries", float64(len(qs)))
	return ar.EvalWorkload(m, qs, ar.EvalOptions{
		Samples: r.sz.ModelSamples, Batch: r.sz.GenBatch, Workers: workers,
		Seed: subSeed(r.seed, streamEval),
	}, nil)
}

// dbQErrors runs engine.EvalWorkload on a generated database.
func (r *runner) dbQErrors(parent int64, db *relation.Schema, qs []workload.CardQuery) []float64 {
	sp := r.tr.begin("engine.eval", parent)
	defer r.tr.end(sp)
	return engine.EvalWorkload(db, qs, r.hooks(sp, false))
}

// checkCompile counts the training queries the model cannot compile: DPS
// training drops them, so each is a failed training query.
func (r *runner) checkCompile(m *ar.Model, ds *dataset) {
	dropped := 0
	for i := range ds.train {
		if _, err := m.Compile(&ds.train[i].Query); err != nil {
			dropped++
		}
	}
	r.dropped += dropped
	r.tally.attempted += len(ds.train)
	r.tally.failed += dropped
	if dropped > 0 {
		fmt.Fprintf(r.log, "pipebench: %s: %d of %d training queries dropped at compile\n", ds.name, dropped, len(ds.train))
	}
}

// roundTripCSV writes an in-memory database as CSV, reads it back with
// relation.(*Table).ReadCSV, and checks the copy's row counts and FK
// closure.
func (r *runner) roundTripCSV(parent int64, where string, db *relation.Schema, targets map[string]int) {
	sp := r.tr.begin("relation.write_csv", parent)
	paths, err := writeCSVs(db, filepath.Join(r.out, "csv", where))
	r.tr.end(sp)
	if !r.tally.stage(err, where+": write csv") {
		return
	}
	r.checkCSVs(parent, where, db.Spec(), paths, targets)
}

// checkCSVs reads CSVs back and checks their row counts and FK closure; it
// returns the database read, or nil.
func (r *runner) checkCSVs(parent int64, where string, spec relation.SchemaSpec, paths map[string]string, targets map[string]int) *relation.Schema {
	sp := r.tr.begin("relation.read_csv", parent)
	back, n, err := readCSVs(spec, paths)
	r.tr.attr(sp, "bytes", float64(n))
	r.tr.end(sp)
	if !r.tally.stage(err, where+": read csv") {
		return nil
	}
	checkRowCounts(&r.tally, where+" csv", back, targets)
	checkFKClosure(&r.tally, where+" csv", back)
	return back
}

// dpsBench is dps-train: DPS training of a Census-like and a DMV-like
// model, each followed by in-memory generation of its table.
type dpsBench struct {
	data []*dataset
}

func (b *dpsBench) setup(r *runner, root int64) (uint64, error) {
	b.data = []*dataset{
		r.singleDataset(root, "census", datagen.Census, r.sz.CensusRows, r.sz.CensusTrainQ, streamCensusData, streamCensusQueries),
		r.singleDataset(root, "dmv", datagen.DMV, r.sz.DMVRows, r.sz.DMVTrainQ, streamDMVData, streamDMVQueries),
	}
	d := newDigest()
	for _, ds := range b.data {
		ds.digest(d)
	}
	return d.sum(), nil
}

func (b *dpsBench) pipeline(r *runner, root int64) (*output, error) {
	out := &output{}
	for _, ds := range b.data {
		m, err := r.train(root, ds, r.sz.DPSEpochs)
		if err != nil {
			return nil, err
		}
		targets, _ := ds.scaledSizes(ds.orig.TotalRows())
		db, wall, err := r.generate(root, m, targets, targets[ds.name])
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", ds.name, err)
		}
		out.models = append(out.models, m)
		out.dbs = append(out.dbs, db)
		out.rows += db.TotalRows()
		out.genWall += wall
	}
	d := newDigest()
	for i := range out.dbs {
		d.model(out.models[i])
		d.schema(out.dbs[i])
	}
	out.digest = d.sum()
	return out, nil
}

func (b *dpsBench) evaluate(r *runner, root int64, out *output) (*qerrors, error) {
	qe := &qerrors{}
	for i, ds := range b.data {
		db, m := out.dbs[i], out.models[i]
		targets, _ := ds.scaledSizes(ds.orig.TotalRows())
		checkRowCounts(&r.tally, ds.name, db, targets)
		checkFKClosure(&r.tally, ds.name, db)
		r.roundTripCSV(root, ds.name, db, targets)
		r.checkCompile(m, ds)
		qe.add(&qerrors{
			input: r.dbQErrors(root, db, ds.train),
			test:  r.dbQErrors(root, db, ds.test),
			model: r.modelQErrors(root, m, ds.test),
		})
	}
	return qe, nil
}

// streamShards gives each sampling worker one shard.
const streamShards = workers

// imdbBench is imdb-gam or imdb-stream: the IMDB-like star schema with the
// model trained in set-up, generated at a multiple of the hidden database
// through the in-memory or the streaming Group-and-Merge path.
type imdbBench struct {
	stream bool
	ds     *dataset
	model  *ar.Model
}

// targets returns the generated table sizes and their scale factor over
// the hidden database.
func (b *imdbBench) targets(r *runner) (map[string]int, float64) {
	if b.stream {
		return b.ds.scaledSizes(r.sz.StreamRows)
	}
	return b.ds.scaledSizes(r.sz.GaMRows)
}

func (b *imdbBench) setup(r *runner, root int64) (uint64, error) {
	b.ds = r.imdbDataset(root)
	m, err := r.train(root, b.ds, r.sz.IMDBEpochs)
	if err != nil {
		return 0, err
	}
	b.model = m
	d := newDigest()
	b.ds.digest(d)
	d.model(m)
	return d.sum(), nil
}

func (b *imdbBench) pipeline(r *runner, root int64) (*output, error) {
	targets, _ := b.targets(r)
	if !b.stream {
		db, wall, err := r.generate(root, b.model, targets, r.sz.GaMSamples)
		if err != nil {
			return nil, fmt.Errorf("generate imdb: %w", err)
		}
		d := newDigest()
		d.schema(db)
		return &output{dbs: []*relation.Schema{db}, rows: db.TotalRows(), genWall: wall, digest: d.sum()}, nil
	}

	gen, err := core.FromModel(b.model, targets)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultStreamOptions(subSeed(r.seed, streamGenerate), filepath.Join(r.out, "stream"))
	opts.Workers = workers
	opts.Batch = r.sz.GenBatch
	opts.Shards = streamShards
	start := time.Now()
	sp := r.tr.begin("core.sample", root)
	opts.Hooks = r.hooks(sp, true)
	set, err := gen.SampleShards(core.ModelSampler(b.model, opts.Batch), r.sz.StreamSamples, opts)
	if err == nil {
		r.tr.attr(sp, "tuples", float64(set.Total))
		r.tr.attr(sp, "shard_bytes", float64(set.Bytes()))
	}
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("sample shards: %w", err)
	}
	sp = r.tr.begin("core.materialize", root)
	opts.Hooks = r.hooks(sp, true)
	res, err := gen.MaterializeStream(set, opts)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("materialize stream: %w", err)
	}
	wall := time.Since(start)
	if err := os.RemoveAll(set.Dir); err != nil {
		return nil, fmt.Errorf("remove shards: %w", err)
	}
	out := &output{stream: res, genWall: wall}
	for _, n := range res.Rows {
		out.rows += n
	}
	d := newDigest()
	if err := d.files(res.CSVPaths); err != nil {
		return nil, err
	}
	out.digest = d.sum()
	return out, nil
}

func (b *imdbBench) evaluate(r *runner, root int64, out *output) (*qerrors, error) {
	targets, f := b.targets(r)
	var db *relation.Schema
	if b.stream {
		for name, n := range out.stream.Rows {
			r.tally.check(n == targets[name], "imdb-stream: MaterializeStream reports %d rows for %s, want %d", n, name, targets[name])
		}
		db = r.checkCSVs(root, "imdb-stream", b.ds.orig.Spec(), out.stream.CSVPaths, targets)
		if db == nil {
			return nil, fmt.Errorf("imdb-stream: generated CSVs unreadable")
		}
	} else {
		db = out.dbs[0]
		checkRowCounts(&r.tally, "imdb-gam", db, targets)
		checkFKClosure(&r.tally, "imdb-gam", db)
		r.roundTripCSV(root, "imdb-gam", db, targets)
	}
	r.checkCompile(b.model, b.ds)
	return &qerrors{
		input: r.dbQErrors(root, db, scaleTruth(b.ds.train, f)),
		test:  r.dbQErrors(root, db, scaleTruth(b.ds.test, f)),
		model: r.modelQErrors(root, b.model, b.ds.test),
	}, nil
}
