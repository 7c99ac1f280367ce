package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"

	"sam/internal/ar"
	"sam/internal/relation"
)

// tally counts the operations a run attempted and the ones that failed.
// Every stage call and every output check is one operation; a failure is
// reported on the log and makes the run exit nonzero.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.log, "pipebench: check failed: "+format+"\n", args...)
	}
	return ok
}

// stage records one stage call by its error.
func (t *tally) stage(err error, what string) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "pipebench: %s: %v\n", what, err)
	}
	return err == nil
}

// checkRowCounts requires every table of db to hold exactly its target
// row count, and db to hold no other table.
func checkRowCounts(t *tally, where string, db *relation.Schema, want map[string]int) {
	t.check(len(db.Tables) == len(want), "%s: %d tables, want %d", where, len(db.Tables), len(want))
	for _, tb := range db.Tables {
		t.check(tb.NumRows() == want[tb.Name], "%s: table %s has %d rows, want %d",
			where, tb.Name, tb.NumRows(), want[tb.Name])
	}
}

// danglingFKs counts, per child table, the rows whose foreign key names no
// primary key of the parent table.
func danglingFKs(db *relation.Schema) map[string]int {
	out := map[string]int{}
	for _, tb := range db.Tables {
		if tb.Parent == "" {
			continue
		}
		parent := db.Table(tb.Parent)
		keys := make(map[int64]struct{}, parent.NumRows())
		for i := 0; i < parent.NumRows(); i++ {
			keys[parent.PK(i)] = struct{}{}
		}
		n := 0
		if len(tb.FK) != tb.NumRows() {
			n = tb.NumRows()
		}
		for _, fk := range tb.FK {
			if _, ok := keys[fk]; !ok {
				n++
			}
		}
		out[tb.Name] = n
	}
	return out
}

// checkFKClosure requires every child key to name an emitted parent key.
func checkFKClosure(t *tally, where string, db *relation.Schema) {
	d := danglingFKs(db)
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.check(d[name] == 0, "%s: %d rows of %s reference no emitted %s key",
			where, d[name], name, db.Table(name).Parent)
	}
}

// checkFinite requires every Q-Error to be a finite number ≥ 1.
func checkFinite(t *tally, what string, qe []float64) {
	bad := 0
	for _, q := range qe {
		if math.IsNaN(q) || math.IsInf(q, 0) || q < 1 {
			bad++
		}
	}
	t.check(len(qe) > 0 && bad == 0, "%s: %d of %d Q-Errors are not finite", what, bad, len(qe))
}

// readCSVs reads every table of spec back from its CSV file with
// relation.(*Table).ReadCSV and returns the schema and the bytes read.
func readCSVs(spec relation.SchemaSpec, paths map[string]string) (*relation.Schema, int64, error) {
	db, err := spec.EmptySchema()
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, tb := range db.Tables {
		n, err := readCSV(tb, paths[tb.Name])
		if err != nil {
			return nil, 0, err
		}
		total += n
	}
	return db, total, nil
}

func readCSV(tb *relation.Table, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := tb.ReadCSV(f); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// writeCSVs writes every table of db to dir/<table>.csv and returns the
// paths.
func writeCSVs(db *relation.Schema, dir string) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := map[string]string{}
	for _, tb := range db.Tables {
		path := dir + "/" + tb.Name + ".csv"
		if err := writeCSV(tb, path); err != nil {
			return nil, err
		}
		paths[tb.Name] = path
	}
	return paths, nil
}

func writeCSV(tb *relation.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// digest accumulates an FNV-64a fingerprint of pipeline outputs, so runs
// can require that the same seed gives the same database and model.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) sum() uint64 { return d.h.Sum64() }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	io.WriteString(d.h, s)
}

// schema folds every table's name, codes, keys and foreign keys.
func (d *digest) schema(db *relation.Schema) {
	for _, tb := range db.Tables {
		d.str(tb.Name)
		d.u64(uint64(tb.NumRows()))
		for _, c := range tb.Cols {
			for _, v := range c.Data {
				d.u64(uint64(uint32(v)))
			}
		}
		for _, v := range tb.PKVals {
			d.u64(uint64(v))
		}
		for _, v := range tb.FK {
			d.u64(uint64(v))
		}
	}
}

// model folds every trained parameter bit for bit.
func (d *digest) model(m *ar.Model) {
	for _, p := range m.Net.Params() {
		for _, v := range p.Data {
			d.u64(math.Float64bits(v))
		}
	}
}

// files folds the contents of the named files in name order.
func (d *digest) files(paths map[string]string) error {
	names := make([]string, 0, len(paths))
	for name := range paths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(paths[name])
		if err != nil {
			return err
		}
		d.str(name)
		_, err = io.Copy(d.h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
