package ar

import (
	"math/rand"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// TestTrainConcurrentWorkersRace drives the full DPS training loop with
// several trainStep goroutines sharing the model, the masked-weight caches,
// and the parallel matmul kernels, over five columns so every chain step
// computes a degree slice — the configuration the per-worker pooled
// tapes and the cache's dirty-bit protocol must keep race-free. The test is
// meaningful under -race; without it it is just a smoke test.
func TestTrainConcurrentWorkersRace(t *testing.T) {
	old := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(4)
	defer tensor.SetMatMulWorkers(old)

	rng := rand.New(rand.NewSource(29))
	s := multiColTable(rng, 200, 4, 6, 3, 8, 5)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 32, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}

	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 16
	cfg.Workers = 4
	cfg.Model.Hidden = 16
	cfg.Seed = 31
	m, err := Train(l, wl, float64(s.Tables[0].NumRows()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The sampling path reads the same masked-weight caches concurrently.
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			srng := rand.New(rand.NewSource(seed))
			smp := m.NewSampler()
			dst := make([]int32, l.NumCols())
			for i := 0; i < 20; i++ {
				smp.SampleFOJ(srng, dst)
			}
			done <- nil
		}(int64(w) + 41)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
