package ar

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/workload"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := bigDomainTable(rng, 300, 200)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 40, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 8
	cfg.Model.Hidden = 16
	m, err := Train(l, wl, 300, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Population != m.Population {
		t.Fatalf("population %v want %v", m2.Population, m.Population)
	}
	if m2.Layout.NumCols() != m.Layout.NumCols() {
		t.Fatal("layout mismatch")
	}
	for i := range m.Disc {
		a, b := m.Disc[i].Cuts(), m2.Disc[i].Cuts()
		if len(a) != len(b) {
			t.Fatalf("column %d cuts differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("column %d cut %d differs", i, j)
			}
		}
	}
	// Same estimates on the same seed stream.
	for qi := 0; qi < 5; qi++ {
		r1 := rand.New(rand.NewSource(int64(100 + qi)))
		r2 := rand.New(rand.NewSource(int64(100 + qi)))
		e1, err := m.Estimate(r1, &wl.Queries[qi].Query, 4)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := m2.Estimate(r2, &wl.Queries[qi].Query, 4)
		if err != nil {
			t.Fatal(err)
		}
		if e1 != e2 {
			t.Fatalf("query %d: estimates diverge after reload: %v vs %v", qi, e1, e2)
		}
	}
}

func TestModelSaveLoadTransformer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := bigDomainTable(rng, 100, 16)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 10, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	cfg := DefaultTrainConfig()
	cfg.Model = DefaultTransformerConfig()
	cfg.Model.DModel = 8
	cfg.Model.Heads = 1
	cfg.Model.Hidden = 16
	cfg.Model.HiddenLayers = 1
	cfg.Epochs = 2
	m, err := Train(l, wl, 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same samples on the same seed stream.
	s1 := m.NewSampler()
	s2 := m2.NewSampler()
	d1 := make([]int32, l.NumCols())
	d2 := make([]int32, l.NumCols())
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		s1.SampleFOJ(r1, d1)
		s2.SampleFOJ(r2, d2)
		for j := range d1 {
			if d1[j] != d2[j] {
				t.Fatalf("sample %d col %d diverges after reload", i, j)
			}
		}
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestLoadRejectsBadConfig feeds Load valid-JSON model files whose
// configuration or population NewModel cannot build from, and expects an
// error back instead of a panic.
func TestLoadRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewModel(join.NewLayout(twoColTable(rng, 50)), nil, 50, DefaultConfig())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	probes := []struct {
		name string
		edit func(mf map[string]any, cfg map[string]any)
	}{
		{"hidden width 0", func(_, cfg map[string]any) { cfg["Hidden"] = 0 }},
		{"hidden layers -1", func(_, cfg map[string]any) { cfg["HiddenLayers"] = -1 }},
		{"unknown arch", func(_, cfg map[string]any) { cfg["Arch"] = "rnn" }},
		{"population 0", func(mf, _ map[string]any) { mf["population"] = 0 }},
		{"negative population", func(mf, _ map[string]any) { mf["population"] = -5 }},
		{"transformer heads not dividing width", func(_, cfg map[string]any) {
			cfg["Arch"], cfg["DModel"], cfg["Heads"] = "transformer", 10, 3
		}},
	}
	for _, p := range probes {
		var mf map[string]any
		if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
			t.Fatal(err)
		}
		p.edit(mf, mf["config"].(map[string]any))
		file, err := json.Marshal(mf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(file)); err == nil {
			t.Errorf("%s: Load accepted the file", p.name)
		}
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("unedited file: %v", err)
	}
}

func TestFromCutsValidation(t *testing.T) {
	for _, cuts := range [][]int32{nil, {0}, {1, 2}, {0, 2, 2}, {0, 3, 1}} {
		if _, err := FromCuts(cuts); err == nil {
			t.Fatalf("invalid cuts %v accepted", cuts)
		}
	}
	d, err := FromCuts([]int32{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bins() != 2 || d.BinOf(3) != 1 {
		t.Fatal("FromCuts reconstruction broken")
	}
}
