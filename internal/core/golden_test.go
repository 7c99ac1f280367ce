package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"sam/internal/ar"
	"sam/internal/datagen"
	"sam/internal/join"
	"sam/internal/relation"
	"sam/internal/tensor"
)

// fixedSamples draws k sanitized oracle samples from one rng stream,
// independent of the sampling scheduler, so the merge goldens below pin
// Alg. 2+3 alone. Content columns wider than eight codes are mapped onto
// interval bins (cut at a third and two thirds of the domain) so that
// decoding a row consumes the merge rng as a learned model's bins would.
func fixedSamples(t *testing.T, orig *relation.Schema, k int, seed int64) (*Generator, []int32) {
	t.Helper()
	l := join.NewLayout(orig)
	disc := identityDiscs(l)
	for i, c := range l.Cols {
		if c.Kind == join.Content && c.Domain > 8 {
			disc[i] = ar.NewInterval(c.Domain, []int32{int32(c.Domain / 3), int32(2 * c.Domain / 3)})
		}
	}
	gen, err := NewGenerator(l, disc, sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	o := join.NewOracle(l)
	rng := rand.New(rand.NewSource(seed))
	ncols := l.NumCols()
	flat := make([]int32, k*ncols)
	for i := 0; i < k; i++ {
		row := flat[i*ncols : (i+1)*ncols]
		o.SampleFOJ(rng, row)
		gen.sanitize(row)
		for c, d := range disc {
			if l.Cols[c].Kind == join.Content {
				row[c] = int32(d.BinOf(row[c]))
			}
		}
	}
	return gen, flat
}

// schemaDigest hashes every table's CSV rendering in schema order.
func schemaDigest(t *testing.T, s *relation.Schema) string {
	t.Helper()
	h := sha256.New()
	for _, tab := range s.Tables {
		h.Write([]byte(tab.Name))
		if err := tab.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// csvDigest hashes a streaming run's CSV files in table-name order.
func csvDigest(t *testing.T, paths map[string]string) string {
	t.Helper()
	names := make([]string, 0, len(paths))
	for name := range paths {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write(fileBytes(t, paths[name]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeShards splits flat into the given shard row counts under dir/shards
// and reopens them as a shard set.
func writeShards(t *testing.T, dir string, ncols int, flat []int32, rows ...int) *ShardSet {
	t.Helper()
	shardDir := filepath.Join(dir, "shards")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	lo := 0
	for shard, n := range rows {
		w, err := relation.CreateShardFile(shardDir, shard, ncols, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRows(flat[lo*ncols : (lo+n)*ncols]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		lo += n
	}
	set, err := OpenShardSet(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestMaterializeGolden pins both Alg. 2+3 drivers to digests of their
// output for fixed sample buffers: the in-memory Materialize (with and
// without Group-and-Merge) and the spill-file MaterializeStream, on a star
// (IMDB) and a two-level chain (TPC-H). Any change to the weights, the key
// allocation, the cell walk, the group order, or the rng consumption of
// row decoding shows up here as a digest change.
func TestMaterializeGolden(t *testing.T) {
	cases := []struct {
		name           string
		orig           *relation.Schema
		k              int
		gam, views, st string
	}{
		{"imdb", datagen.IMDB(23, 150), 7000, "c99d0728c58e9077", "47ad4aa77a8ad026", "6fb8a3f2c27849c7"},
		{"tpch", datagen.TPCH(5, 120), 9000, "897b3fe28ca9ed43", "f4ccad425862f6ea", "273a3e05f0821807"},
	}
	for _, tc := range cases {
		gen, flat := fixedSamples(t, tc.orig, tc.k, 61)
		opts := DefaultGenOptions(17)
		gam, err := gen.Materialize(flat, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.GroupAndMerge = false
		views, err := gen.Materialize(flat, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		set := writeShards(t, dir, gen.Layout.NumCols(), flat, tc.k/3, tc.k-tc.k/3)
		sopts := DefaultStreamOptions(17, dir)
		sopts.Partitions = 7
		res, err := gen.MaterializeStream(set, sopts)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]string{schemaDigest(t, gam), schemaDigest(t, views), csvDigest(t, res.CSVPaths)}
		want := [3]string{tc.gam, tc.views, tc.st}
		for i, what := range []string{"Materialize", "Materialize w/o GaM", "MaterializeStream"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s digest %s, want %s", tc.name, what, got[i], want[i])
			}
		}
	}
}

// shardRows replays a shard set's rows in shard order.
func shardRows(t *testing.T, set *ShardSet) []int32 {
	t.Helper()
	var out []int32
	buf := make([]int32, 256*set.NCols)
	if err := set.Stream(buf, func(_ int64, row []int32) error {
		out = append(out, row...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sampleDigest(flat []int32) string {
	h := sha256.New()
	for _, v := range flat {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSamplingContractGolden is the determinism contract of generation:
// the samples are a pure function of (Seed, Batch, k). DrawSamples must
// return the same bits for every Workers × GOMAXPROCS × kernel-worker
// setting, and SampleShards must write exactly those rows whatever the
// shard count (TestGenerateStreamDeterministicAcrossWorkers carries the
// contract on to the CSVs). It runs a model sampler through the batch
// kernel and the oracle one tuple at a time; the oracle's samples are
// also pinned to a digest, so any change to the sample stream is
// deliberate.
func TestSamplingContractGolden(t *testing.T) {
	orig := datagen.IMDB(19, 120)
	l := join.NewLayout(orig)
	cfg := ar.DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = 9
	m := ar.NewModel(l, nil, float64(orig.Tables[0].NumRows()), cfg)
	gen, err := FromModel(m, sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	o := join.NewOracle(l)
	const k = 3*blockRows + 300 // three full blocks and a partial one
	cases := []struct {
		name       string
		batch      int
		newSampler func() join.TupleSampler
		digest     string // "" for samples that depend on float rounding
	}{
		{"model", 16, ModelSampler(m, 16), ""},
		{"oracle", 1, func() join.TupleSampler { return o }, "0ec5cc588736c52c"},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer tensor.SetMatMulWorkers(tensor.MatMulWorkers())
	for _, tc := range cases {
		opts := DefaultGenOptions(31)
		opts.Batch = tc.batch
		var want []int32
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			tensor.SetMatMulWorkers(procs)
			for _, workers := range []int{1, 2, 4} {
				opts.Workers = workers
				got := gen.DrawSamples(tc.newSampler, k, opts)
				if want == nil {
					want = got
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: DrawSamples differs at GOMAXPROCS=%d Workers=%d", tc.name, procs, workers)
				}
			}
		}
		if tc.digest != "" {
			if got := sampleDigest(want); got != tc.digest {
				t.Errorf("%s: sample digest %s, want %s", tc.name, got, tc.digest)
			}
		}
		for _, shards := range []int{1, 3} {
			sopts := DefaultStreamOptions(31, t.TempDir())
			sopts.GenOptions = opts
			sopts.Workers = 2
			sopts.Shards = shards
			set, err := gen.SampleShards(tc.newSampler, k, sopts)
			if err != nil {
				t.Fatal(err)
			}
			if len(set.Paths) != shards {
				t.Fatalf("%s: %d shard files, want %d", tc.name, len(set.Paths), shards)
			}
			if !slices.Equal(shardRows(t, set), want) {
				t.Fatalf("%s: SampleShards at Shards=%d differs from DrawSamples", tc.name, shards)
			}
		}
	}
}
