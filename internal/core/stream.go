package core

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
)

// defaultPartitions is the spill fan-out when StreamOptions.Partitions is
// unset. Peak merge memory scales with (samples ÷ partitions).
const defaultPartitions = 64

// readRows is the row count of the buffer the merge passes read shard
// files through.
const readRows = 8192

// StreamResult summarizes one streaming generation run.
type StreamResult struct {
	// CSVPaths maps table name → the CSV file its rows streamed into.
	CSVPaths map[string]string
	// Rows is the emitted row count per table.
	Rows map[string]int
	// Groups is the merge-group count per table (telemetry, mirroring the
	// in-memory path's GenPhase events).
	Groups map[string]int
	// Samples is the number of FOJ samples consumed.
	Samples int
	// SampleWall and MergeWall are the phase wall times (SampleWall is zero
	// when MaterializeStream ran over pre-existing shards).
	SampleWall time.Duration
	MergeWall  time.Duration
}

// Stream replays the shard set's samples in global row order (shard 0
// first), invoking fn per row. buf is the reusable read buffer (row-major,
// a whole number of rows); the row slice passed to fn aliases it.
func (s *ShardSet) Stream(buf []int32, fn func(idx int64, row []int32) error) error {
	ncols := s.NCols
	if len(buf) < ncols {
		return fmt.Errorf("core: stream buffer holds no full row")
	}
	var idx int64
	for _, path := range s.Paths {
		r, err := relation.OpenShardFile(path)
		if err != nil {
			return err
		}
		for {
			n, err := r.ReadRows(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				//lint:allow errpropagate read-only close on an error path; the read error dominates
				r.Close()
				return err
			}
			for i := 0; i < n; i++ {
				if err := fn(idx, buf[i*ncols:(i+1)*ncols]); err != nil {
					//lint:allow errpropagate read-only close on an error path; the callback error dominates
					r.Close()
					return err
				}
				idx++
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	if idx != int64(s.Total) {
		return fmt.Errorf("core: shard set replayed %d rows, expected %d", idx, s.Total)
	}
	return nil
}

// memberRec is one group member carried from the grouping pass to the key
// allocation pass: the sample's global index and its scaled weight.
type memberRec struct {
	idx int64
	w   float64
}

func spillPath(dir, prefix string, part int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%03d", prefix, part))
}

// GenerateStream runs the bounded-memory pipeline end to end: sharded
// sampling to opts.OutDir/shards, then the external Group-and-Merge into
// one CSV per table under opts.OutDir. The shard files are removed
// afterwards unless opts.KeepSamples is set.
func (g *Generator) GenerateStream(newSampler func() join.TupleSampler, opts StreamOptions) (*StreamResult, error) {
	k := opts.Samples
	if k <= 0 {
		for _, t := range g.Layout.Schema.Tables {
			k += g.Sizes[t.Name]
		}
	}
	set, err := g.SampleShards(newSampler, k, opts)
	if err != nil {
		return nil, err
	}
	res, err := g.MaterializeStream(set, opts)
	if err != nil {
		return nil, err
	}
	res.SampleWall = set.Wall
	if !opts.KeepSamples {
		if err := os.RemoveAll(set.Dir); err != nil {
			return nil, fmt.Errorf("core: remove shard dir: %w", err)
		}
	}
	return res, nil
}

// MaterializeStream is the external-memory Group-and-Merge: it turns a
// shard set into one CSV per table under opts.OutDir without ever holding
// the samples — or a table — resident. Per table (topological order) it
// runs three passes over spill files partitioned by group-key hash:
//
//	A: stream samples (merge-joining the parent's span runs by sample
//	   index), spill each surviving record to its group's hash partition;
//	B: group each partition in first-appearance order, writing aggregate
//	   and member runs and accumulating the global weight mass;
//	C: stream the aggregate runs through a systematic key allocator,
//	   emitting rows to the table's CSV and span runs for the children.
//
// Group traversal order is (hash partition, first appearance within the
// partition) — deterministic for fixed (Seed, Partitions), but a
// different order than the in-memory Materialize, so the two paths emit
// statistically equivalent databases rather than identical bytes. Peak
// memory is O(samples ÷ Partitions) plus the streaming buffers.
func (g *Generator) MaterializeStream(set *ShardSet, opts StreamOptions) (*StreamResult, error) {
	if !opts.GroupAndMerge {
		return nil, fmt.Errorf("core: streaming generation requires Group-and-Merge (the pairwise-view ablation is in-memory only)")
	}
	ncols := g.Layout.NumCols()
	if set.NCols != ncols {
		return nil, fmt.Errorf("core: shard set has %d columns, layout wants %d", set.NCols, ncols)
	}
	start := time.Now()
	P := opts.Partitions
	if P <= 0 {
		P = defaultPartitions
	}
	outDir := opts.OutDir
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: out dir: %w", err)
	}
	spillDir := opts.SpillDir
	if spillDir == "" {
		spillDir = filepath.Join(outDir, ".spill")
	}
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: spill dir: %w", err)
	}
	defer os.RemoveAll(spillDir)

	buf := make([]int32, readRows*ncols)

	// Weight pass: one scan computes every table's weight mass, giving the
	// per-table scaling factors (Alg. 2's |T|/Σw).
	weightSpan := opts.Span.Child("weight")
	wStart := time.Now()
	tcs := g.tableCtxs()
	sums := make([]float64, len(tcs))
	err := set.Stream(buf, func(_ int64, row []int32) error {
		for ti, tc := range tcs {
			sums[ti] += g.rawWeight(tc, row)
		}
		return nil
	})
	if err != nil {
		weightSpan.End()
		return nil, err
	}
	for ti, tc := range tcs {
		if sums[ti] == 0 {
			weightSpan.End()
			return nil, fmt.Errorf("core: no full-outer-join sample contains relation %s", tc.t.Name)
		}
		tc.factor = float64(g.Sizes[tc.t.Name]) / sums[ti]
		weightSpan.SetAttr("mass_"+tc.t.Name, sums[ti])
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "weight", Table: tc.t.Name, Tuples: set.Total,
			MassBefore: sums[ti], MassAfter: float64(g.Sizes[tc.t.Name]),
			Wall: time.Since(wStart),
		})
	}
	weightSpan.End()
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "weight", Shard: -1,
		RecordsIn: int64(set.Total),
		BytesRead: 4 * int64(set.Total) * int64(ncols),
		Wall:      time.Since(wStart),
	})

	mergeSpan := opts.Span.Child("merge")
	defer mergeSpan.End()
	mergeSpan.SetAttr("group_and_merge", true)
	mergeSpan.SetAttr("partitions", P)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5a17))

	res := &StreamResult{
		CSVPaths: make(map[string]string, len(tcs)),
		Rows:     make(map[string]int, len(tcs)),
		Groups:   make(map[string]int, len(tcs)),
		Samples:  set.Total,
	}
	// Span runs feed every child of a table; drop them once the last child
	// has merged against them.
	childLeft := make(map[string]int)
	for _, tc := range tcs {
		if tc.t.Parent != "" {
			childLeft[tc.t.Parent]++
		}
	}
	for _, tc := range tcs {
		var parent *spanMerge
		if tc.t.Parent != "" {
			parent, err = openSpanMerge(spillDir, tc.t.Parent+".span", P)
			if err != nil {
				return nil, err
			}
		}
		tStart := time.Now()
		// One span per table (path merge/table, attr "name"), with the
		// three spill passes as A/B/C children — the per-pass self/total
		// attribution samtrace renders for a scale run.
		tspan := mergeSpan.Child("table")
		tspan.SetAttr("name", tc.t.Name)
		var rows, groups int
		if tc.hasChildren {
			rows, groups, err = g.streamInternal(set, tc, parent, buf, P, spillDir, outDir, rng, tspan, opts)
		} else {
			rows, groups, err = g.streamLeaf(set, tc, parent, buf, P, spillDir, outDir, rng, tspan, opts)
		}
		tspan.End()
		if parent != nil {
			parent.Close()
			childLeft[tc.t.Parent]--
			if childLeft[tc.t.Parent] == 0 {
				for part := 0; part < P; part++ {
					os.Remove(spillPath(spillDir, tc.t.Parent+".span", part))
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: stream table %s: %w", tc.t.Name, err)
		}
		res.CSVPaths[tc.t.Name] = filepath.Join(outDir, tc.t.Name+".csv")
		res.Rows[tc.t.Name] = rows
		res.Groups[tc.t.Name] = groups
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "merge", Table: tc.t.Name, Tuples: rows,
			Groups: groups, Wall: time.Since(tStart),
		})
	}
	res.MergeWall = time.Since(start)
	return res, nil
}

// csvSink wraps the buffered CSV pipeline for one table.
type csvSink struct {
	f  *os.File
	bw *bufio.Writer
	rw *relation.CSVRowWriter
}

func newCSVSink(path string, t *relation.Table, withPK bool) (*csvSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("core: create csv: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	rw, err := relation.NewCSVRowWriter(bw, t, withPK)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &csvSink{f: f, bw: bw, rw: rw}, nil
}

func (s *csvSink) close() error {
	err := s.rw.Flush()
	if ferr := s.bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// streamInternal materializes one primary-key table: pass A spills
// (identifier bins, assigned parent key)-grouped records, pass B
// aggregates each partition into agg+member runs, pass C allocates keys
// systematically, emits one CSV row per key, and cell-walks each group's
// members into span runs for the children.
//
// Each pass runs under its own child span of tspan and reports an
// obs.StreamPass event (records in/out, spill bytes, run counts, the
// parent heap-merge fan-in). All of it is observational: the spill bytes,
// group order, and emitted CSV are identical with observers on or off.
func (g *Generator) streamInternal(set *ShardSet, tc *tableCtx, parent *spanMerge,
	buf []int32, P int, spillDir, outDir string, rng *rand.Rand, tspan *obs.Span, opts StreamOptions) (int, int, error) {
	name := tc.t.Name
	nid, nc := len(tc.idCols), len(tc.ctIdx)
	rawSize := 24 + 4*(nid+nc)
	aggSize := 20 + 4*nc
	fan := parent.fanIn()

	// Pass A: spill surviving samples to group-hash partitions.
	aStart := time.Now()
	passA := tspan.Child("A")
	passA.SetAttr("fan_in", fan)
	pw, err := newPartWriter(spillDir, name+".raw", P)
	if err != nil {
		passA.End()
		return 0, 0, err
	}
	coarse := make([]int32, nid)
	content := make([]int32, nc)
	var keyBuf, recBuf []byte
	var spans []keySpan
	var spilled int64
	err = set.Stream(buf, func(idx int64, row []int32) error {
		// Drain the parent's spans for every index, even filtered ones,
		// to keep the merge-join aligned.
		if parent != nil {
			spans, err = parent.spansFor(idx, spans[:0])
			if err != nil {
				return err
			}
		}
		wi := g.rawWeight(tc, row) * tc.factor
		if wi <= 0 {
			return nil
		}
		var pk int64
		if parent != nil {
			if len(spans) == 0 {
				return nil // parent absent: inconsistent sample
			}
			pk = majorityKey(spans)
		}
		g.groupBins(row, tc.idCols, coarse)
		for ci, li := range tc.ctIdx {
			content[ci] = row[li]
		}
		keyBuf = packKey(keyBuf[:0], coarse, pk)
		recBuf = putU64(recBuf[:0], uint64(idx))
		recBuf = putF64(recBuf, wi)
		recBuf = putU64(recBuf, uint64(pk))
		recBuf = putI32s(recBuf, coarse)
		recBuf = putI32s(recBuf, content)
		spilled++
		return pw.write(spillPartition(keyBuf, P), recBuf)
	})
	if err == nil {
		err = pw.close()
	}
	passA.SetAttr("records_out", spilled)
	passA.End()
	if err != nil {
		pw.cleanup()
		return 0, 0, err
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "A", Table: name, Shard: -1,
		RecordsIn: int64(set.Total), RecordsOut: spilled,
		Runs: P, FanIn: fan,
		BytesWritten: spilled * int64(rawSize),
		Wall:         time.Since(aStart),
	})

	// Pass B: group each partition (first-appearance order), write agg and
	// member runs, accumulate the global weight mass in group order.
	bStart := time.Now()
	type igroup struct {
		gw      float64
		pk      int64
		content []int32
		members int
	}
	var sum float64
	groups := 0
	err = func() error {
		passB := tspan.Child("B")
		defer passB.End()
		for part := 0; part < P; part++ {
			var order []*igroup
			lookup := make(map[string]*igroup)
			perGroup := make(map[*igroup][]memberRec)
			err := readRecords(pw.paths[part], rawSize, func(rec []byte) error {
				idx := int64(getU64(rec))
				w := getF64(rec[8:])
				// Group key = parent-key bytes + coarse identifier bytes,
				// reused straight from the record.
				key := string(rec[16 : 24+4*nid])
				grp := lookup[key]
				if grp == nil {
					ct := make([]int32, nc)
					getI32s(rec[24+4*nid:], ct)
					grp = &igroup{pk: int64(getU64(rec[16:])), content: ct}
					lookup[key] = grp
					order = append(order, grp)
				}
				grp.gw += w
				grp.members++
				perGroup[grp] = append(perGroup[grp], memberRec{idx: idx, w: w})
				return nil
			})
			if err != nil {
				return err
			}
			aggF, err := os.Create(spillPath(spillDir, name+".agg", part))
			if err != nil {
				return fmt.Errorf("core: create agg run: %w", err)
			}
			memF, err := os.Create(spillPath(spillDir, name+".mem", part))
			if err != nil {
				aggF.Close()
				return fmt.Errorf("core: create member run: %w", err)
			}
			aggW := bufio.NewWriterSize(aggF, 1<<15)
			memW := bufio.NewWriterSize(memF, 1<<15)
			for _, grp := range order {
				sum += grp.gw
				recBuf = putF64(recBuf[:0], grp.gw)
				recBuf = putU64(recBuf, uint64(grp.pk))
				recBuf = append(recBuf, byte(grp.members), byte(grp.members>>8), byte(grp.members>>16), byte(grp.members>>24))
				recBuf = putI32s(recBuf, grp.content)
				if _, err := aggW.Write(recBuf); err != nil {
					aggF.Close()
					memF.Close()
					return fmt.Errorf("core: write agg run: %w", err)
				}
				for _, m := range perGroup[grp] {
					recBuf = putU64(recBuf[:0], uint64(m.idx))
					recBuf = putF64(recBuf, m.w)
					if _, err := memW.Write(recBuf); err != nil {
						aggF.Close()
						memF.Close()
						return fmt.Errorf("core: write member run: %w", err)
					}
				}
			}
			groups += len(order)
			if err := flushClose(aggW, aggF); err != nil {
				memF.Close()
				return err
			}
			if err := flushClose(memW, memF); err != nil {
				return err
			}
			os.Remove(pw.paths[part])
		}
		passB.SetAttr("groups", groups)
		return nil
	}()
	if err != nil {
		return 0, 0, err
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "B", Table: name, Shard: -1,
		RecordsIn: spilled, RecordsOut: int64(groups),
		Runs:         2 * P, // one agg + one member run per partition
		BytesRead:    spilled * int64(rawSize),
		BytesWritten: int64(groups)*int64(aggSize) + spilled*16,
		Wall:         time.Since(bStart),
	})

	// Pass C: allocate |T| keys across groups in order, one CSV row per
	// key, span runs for the children. Groups resolve with a one-group
	// delay so the final group absorbs the allocator's drift remainder
	// (matching systematicCounts).
	cStart := time.Now()
	passC := tspan.Child("C")
	sink, err := newCSVSink(filepath.Join(outDir, name+".csv"), tc.t, true)
	if err != nil {
		passC.End()
		return 0, 0, err
	}
	alloc := newSysAlloc(sum, g.Sizes[name])
	type pgroup struct {
		gw      float64
		pk      int64
		content []int32
		members []memberRec
		count   int
		part    int
	}
	var pending *pgroup
	var counter int64
	vals := make([]int32, nc)
	var spanBuf []spanRec
	var cells []keySpan // one member's spans, reused
	var spanRecs int64  // span-run records written, for the pass C event
	curSpanPart := 0
	flushSpansTo := func(part int) error {
		for curSpanPart < part {
			if err := writeSpanRun(spillPath(spillDir, name+".span", curSpanPart), spanBuf); err != nil {
				return err
			}
			spanRecs += int64(len(spanBuf))
			spanBuf = spanBuf[:0]
			curSpanPart++
		}
		return nil
	}
	emit := func(p *pgroup) error {
		if p.count == 0 {
			return nil
		}
		if err := flushSpansTo(p.part); err != nil {
			return err
		}
		base := counter
		counter += int64(p.count)
		for j := 0; j < p.count; j++ {
			for ci := range vals {
				vals[ci] = g.Disc[tc.ctIdx[ci]].SampleIn(rng, int(p.content[ci]))
			}
			if err := sink.rw.WriteRow(base+int64(j), vals, p.pk); err != nil {
				return err
			}
		}
		walk := newCellWalk(base, p.count, p.gw)
		for _, m := range p.members {
			cells = walk.split(cells[:0], m.w)
			for _, c := range cells {
				spanBuf = append(spanBuf, spanRec{idx: m.idx, key: c.key, frac: c.frac})
			}
		}
		return nil
	}
	streamErr := func() error {
		aggRec := make([]byte, aggSize)
		memRec := make([]byte, 16)
		for part := 0; part < P; part++ {
			aggF, err := os.Open(spillPath(spillDir, name+".agg", part))
			if err != nil {
				return fmt.Errorf("core: open agg run: %w", err)
			}
			memF, err := os.Open(spillPath(spillDir, name+".mem", part))
			if err != nil {
				aggF.Close()
				return fmt.Errorf("core: open member run: %w", err)
			}
			aggR := bufio.NewReaderSize(aggF, 1<<15)
			memR := bufio.NewReaderSize(memF, 1<<15)
			for {
				_, err := io.ReadFull(aggR, aggRec)
				if err == io.EOF {
					break
				}
				if err != nil {
					aggF.Close()
					memF.Close()
					return fmt.Errorf("core: read agg run: %w", err)
				}
				grp := &pgroup{
					gw:      getF64(aggRec),
					pk:      int64(getU64(aggRec[8:])),
					content: make([]int32, nc),
					part:    part,
				}
				getI32s(aggRec[20:], grp.content)
				n := int(getI32(aggRec[16:]))
				grp.members = make([]memberRec, n)
				for mi := 0; mi < n; mi++ {
					if _, err := io.ReadFull(memR, memRec); err != nil {
						aggF.Close()
						memF.Close()
						return fmt.Errorf("core: read member run: %w", err)
					}
					grp.members[mi] = memberRec{idx: int64(getU64(memRec)), w: getF64(memRec[8:])}
				}
				grp.count = alloc.next(grp.gw)
				if pending != nil {
					if err := emit(pending); err != nil {
						aggF.Close()
						memF.Close()
						return err
					}
				}
				pending = grp
			}
			aggF.Close()
			memF.Close()
			os.Remove(spillPath(spillDir, name+".agg", part))
			os.Remove(spillPath(spillDir, name+".mem", part))
		}
		if pending != nil {
			pending.count += alloc.leftover()
			if err := emit(pending); err != nil {
				return err
			}
			pending = nil
		}
		return flushSpansTo(P)
	}()
	if cerr := sink.close(); streamErr == nil {
		streamErr = cerr
	}
	passC.SetAttr("rows", counter)
	passC.End()
	if streamErr != nil {
		return 0, 0, streamErr
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "C", Table: name, Shard: -1,
		RecordsIn: int64(groups), RecordsOut: counter,
		Runs:         P, // one child span run per partition
		BytesRead:    int64(groups)*int64(aggSize) + spilled*16,
		BytesWritten: spanRecs * spanRecSize,
		Wall:         time.Since(cStart),
	})
	return int(counter), groups, nil
}

func flushClose(bw *bufio.Writer, f *os.File) error {
	err := bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: flush spill run: %w", err)
	}
	return nil
}

// streamLeaf materializes a leaf table: pass A spills one record per
// (sample, parent span) with weight w·frac, pass B aggregates by (content
// bins, parent key), and pass C rescales the aggregate mass to |T| and
// emits the allocated row counts — each row decoded fresh, as in the
// in-memory path.
//
// As in streamInternal, each pass runs under its own child span of tspan
// and reports an obs.StreamPass event; the instrumentation never alters
// the spill bytes or the emitted CSV.
func (g *Generator) streamLeaf(set *ShardSet, tc *tableCtx, parent *spanMerge,
	buf []int32, P int, spillDir, outDir string, rng *rand.Rand, tspan *obs.Span, opts StreamOptions) (int, int, error) {
	name := tc.t.Name
	nc := len(tc.ctIdx)
	rawSize := 16 + 4*nc
	fan := parent.fanIn()

	aStart := time.Now()
	passA := tspan.Child("A")
	passA.SetAttr("fan_in", fan)
	pw, err := newPartWriter(spillDir, name+".raw", P)
	if err != nil {
		passA.End()
		return 0, 0, err
	}
	content := make([]int32, nc)
	var keyBuf, recBuf []byte
	var spans []keySpan
	var spilled int64
	spill := func(pk int64, w float64) error {
		keyBuf = packKey(keyBuf[:0], content, pk)
		recBuf = putU64(recBuf[:0], uint64(pk))
		recBuf = putF64(recBuf, w)
		recBuf = putI32s(recBuf, content)
		spilled++
		return pw.write(spillPartition(keyBuf, P), recBuf)
	}
	err = set.Stream(buf, func(idx int64, row []int32) error {
		if parent != nil {
			spans, err = parent.spansFor(idx, spans[:0])
			if err != nil {
				return err
			}
		}
		wi := g.rawWeight(tc, row) * tc.factor
		if wi <= 0 {
			return nil
		}
		for ci, li := range tc.ctIdx {
			content[ci] = row[li]
		}
		if parent == nil {
			return spill(0, wi)
		}
		for _, sp := range spans {
			if err := spill(sp.key, wi*sp.frac); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = pw.close()
	}
	passA.SetAttr("records_out", spilled)
	passA.End()
	if err != nil {
		pw.cleanup()
		return 0, 0, err
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "A", Table: name, Shard: -1,
		RecordsIn: int64(set.Total), RecordsOut: spilled,
		Runs: P, FanIn: fan,
		BytesWritten: spilled * int64(rawSize),
		Wall:         time.Since(aStart),
	})

	// Pass B: aggregate each partition by (content, parent key).
	bStart := time.Now()
	type lgroup struct {
		gw      float64
		fk      int64
		content []int32
	}
	aggSize := 16 + 4*nc
	var aggSum float64
	groups := 0
	err = func() error {
		passB := tspan.Child("B")
		defer passB.End()
		for part := 0; part < P; part++ {
			var order []*lgroup
			lookup := make(map[string]*lgroup)
			err := readRecords(pw.paths[part], rawSize, func(rec []byte) error {
				key := string(rec[0:8]) + string(rec[16:16+4*nc]) // pk bytes + content bytes
				grp := lookup[key]
				if grp == nil {
					ct := make([]int32, nc)
					getI32s(rec[16:], ct)
					grp = &lgroup{fk: int64(getU64(rec)), content: ct}
					lookup[key] = grp
					order = append(order, grp)
				}
				grp.gw += getF64(rec[8:])
				return nil
			})
			if err != nil {
				return err
			}
			aggF, err := os.Create(spillPath(spillDir, name+".agg", part))
			if err != nil {
				return fmt.Errorf("core: create agg run: %w", err)
			}
			aggW := bufio.NewWriterSize(aggF, 1<<15)
			for _, grp := range order {
				aggSum += grp.gw
				recBuf = putF64(recBuf[:0], grp.gw)
				recBuf = putU64(recBuf, uint64(grp.fk))
				recBuf = putI32s(recBuf, grp.content)
				if _, err := aggW.Write(recBuf); err != nil {
					aggF.Close()
					return fmt.Errorf("core: write agg run: %w", err)
				}
			}
			groups += len(order)
			if err := flushClose(aggW, aggF); err != nil {
				return err
			}
			os.Remove(pw.paths[part])
		}
		passB.SetAttr("groups", groups)
		return nil
	}()
	if err != nil {
		return 0, 0, err
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "B", Table: name, Shard: -1,
		RecordsIn: spilled, RecordsOut: int64(groups),
		Runs:         P, // one agg run per partition (leaves have no members)
		BytesRead:    spilled * int64(rawSize),
		BytesWritten: int64(groups) * int64(aggSize),
		Wall:         time.Since(bStart),
	})

	// Pass C: rescale the aggregate mass to |T| (restoring mass lost with
	// dropped parent groups, exactly as the in-memory leaf path does
	// before rounding), then systematic allocation over scaled aggregate
	// weights, rows decoded per emission.
	cStart := time.Now()
	passC := tspan.Child("C")
	factor := 0.0
	if aggSum > 0 {
		factor = float64(g.Sizes[name]) / aggSum
	}
	var scaledSum float64
	for part := 0; part < P; part++ {
		err := readRecords(spillPath(spillDir, name+".agg", part), aggSize, func(rec []byte) error {
			scaledSum += getF64(rec) * factor
			return nil
		})
		if err != nil {
			passC.End()
			return 0, 0, err
		}
	}

	sink, err := newCSVSink(filepath.Join(outDir, name+".csv"), tc.t, false)
	if err != nil {
		passC.End()
		return 0, 0, err
	}
	alloc := newSysAlloc(scaledSum, g.Sizes[name])
	type pgroup struct {
		fk      int64
		content []int32
		count   int
	}
	var pending *pgroup
	rows := 0
	vals := make([]int32, nc)
	emit := func(p *pgroup) error {
		for j := 0; j < p.count; j++ {
			for ci := range vals {
				vals[ci] = g.Disc[tc.ctIdx[ci]].SampleIn(rng, int(p.content[ci]))
			}
			if err := sink.rw.WriteRow(0, vals, p.fk); err != nil {
				return err
			}
			rows++
		}
		return nil
	}
	streamErr := func() error {
		for part := 0; part < P; part++ {
			path := spillPath(spillDir, name+".agg", part)
			err := readRecords(path, aggSize, func(rec []byte) error {
				grp := &pgroup{fk: int64(getU64(rec[8:])), content: make([]int32, nc)}
				getI32s(rec[16:], grp.content)
				grp.count = alloc.next(getF64(rec) * factor)
				if pending != nil {
					if err := emit(pending); err != nil {
						return err
					}
				}
				pending = grp
				return nil
			})
			if err != nil {
				return err
			}
			os.Remove(path)
		}
		if pending != nil {
			pending.count += alloc.leftover()
			if err := emit(pending); err != nil {
				return err
			}
			pending = nil
		}
		return nil
	}()
	if cerr := sink.close(); streamErr == nil {
		streamErr = cerr
	}
	passC.SetAttr("rows", rows)
	passC.End()
	if streamErr != nil {
		return 0, 0, streamErr
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "C", Table: name, Shard: -1,
		RecordsIn: int64(groups), RecordsOut: int64(rows),
		// Two scans over the agg runs: the rescale pre-pass and the
		// allocation walk.
		BytesRead: 2 * int64(groups) * int64(aggSize),
		Wall:      time.Since(cStart),
	})
	return rows, groups, nil
}
