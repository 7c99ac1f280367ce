package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"sam/internal/obs"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported with -trace 0, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"pipeline_s", "s"},
	{"gen_rows_per_s", "1/s"},
	{"qerror_input_gmean", "ratio"},
	{"peak_heap_mib", "MiB"},
}

// perLayerMetrics are reported with -trace 1, on every workload. A layer a
// workload does not run reports a zero count or share, never a time.
var perLayerMetrics = []metricDef{
	{"ar.train_s", "s"},
	{"ar.train_steps", "count"},
	{"ar.train_step_ms_p50", "ms"},
	{"ar.train_step_ms_tail", "ms"},
	{"ar.train_step_tail_pct", "pct"},
	{"ar.train_step_samples", "count"},
	{"ar.train_chains_per_s", "1/s"},
	{"ar.train_alloc_mib", "MiB"},
	{"ar.train_gc_cycles", "count"},
	{"ar.compile_dropped", "count"},
	{"ar.final_loss", "loss"},
	{"ar.eval_s", "s"},
	{"ar.eval_queries_per_s", "1/s"},
	{"ar.model_qerror_p50", "ratio"},
	{"ar.model_qerror_p90", "ratio"},
	{"core.sample_s", "s"},
	{"core.sample_tuples_per_s", "1/s"},
	{"core.sample_alloc_mib", "MiB"},
	{"core.backpressure_wait_pct", "%"},
	{"core.weight_s", "s"},
	{"core.merge_s", "s"},
	{"core.merge_groups", "count"},
	{"core.materialize_alloc_mib", "MiB"},
	{"core.gen_gc_cycles", "count"},
	{"core.pass_a_pct", "%"},
	{"core.pass_b_pct", "%"},
	{"core.pass_c_pct", "%"},
	{"core.spill_bytes", "bytes"},
	{"core.spill_runs", "count"},
	{"core.qerror_input_p50", "ratio"},
	{"core.qerror_input_p90", "ratio"},
	{"core.qerror_test_p50", "ratio"},
	{"core.qerror_test_p90", "ratio"},
	{"relation.shard_bytes", "bytes"},
	{"relation.csv_bytes", "bytes"},
	{"relation.read_csv_s", "s"},
	{"engine.label_s", "s"},
	{"engine.eval_s", "s"},
	{"engine.query_ms_p50", "ms"},
	{"engine.query_ms_tail", "ms"},
	{"engine.query_tail_pct", "pct"},
	{"engine.queries", "count"},
	{"datagen.s", "s"},
	{"workload.gen_s", "s"},
	{"trace.layer_cover_pct", "%"},
	{"trace.overhead_s", "s"},
	{"host.ref_ms", "ms"},
	{"host.pipeline_wall_s", "s"},
}

// minQErrorSamples keeps ten queries beyond each reported p90.
const minQErrorSamples = 100

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(tm *timings) map[string]float64 {
	return map[string]float64{
		"setup_s":            median(tm.setup),
		"pipeline_s":         median(tm.pipeline),
		"gen_rows_per_s":     median(tm.genRate),
		"qerror_input_gmean": geoMean(tm.qe.input),
		"peak_heap_mib":      median(tm.peakHeap) / (1 << 20),
	}
}

// qerrorQuantiles sets name_p50 and name_p90 from xs, or NaN (a failed
// metric) with too few queries for a p90.
func qerrorQuantiles(v map[string]float64, name string, xs []float64) {
	v[name+"_p50"], v[name+"_p90"] = math.NaN(), math.NaN()
	if len(xs) >= minQErrorSamples {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		v[name+"_p50"], v[name+"_p90"] = quantile(s, 0.5), quantile(s, 0.9)
	}
}

// perLayer derives the per-layer metrics of a traced run from its spans.
// A layer's value is the median over the roots (set-up repetitions, traced
// pipeline iterations, the evaluation) that ran it.
func perLayer(st *spanTree, tm *timings, dropped int) map[string]float64 {
	v := map[string]float64{}
	// over takes the median of fn over the roots that ran layer.
	over := func(layer string, fn func(root int) float64) float64 {
		var xs []float64
		for _, i := range st.children[0] {
			if _, _, n := st.layerTotal(i, layer, ""); n > 0 {
				xs = append(xs, fn(i))
			}
		}
		return median(xs)
	}
	dur := func(root int, layer string) float64 { d, _, _ := st.layerTotal(root, layer, ""); return d }
	attr := func(root int, layer, key string) float64 { _, a, _ := st.layerTotal(root, layer, key); return a }
	durOf := func(layer string) float64 { return over(layer, func(i int) float64 { return dur(i, layer) }) }
	attrOf := func(layer, key string) float64 {
		return over(layer, func(i int) float64 { return attr(i, layer, key) })
	}

	v["ar.train_s"] = durOf("ar.train")
	v["ar.train_steps"] = over("ar.train", func(i int) float64 { _, _, n := st.layerTotal(i, "ar.train_step", ""); return float64(n) })
	steps := summarize(spanMillis(st, "ar.train_step"))
	v["ar.train_step_ms_p50"], v["ar.train_step_ms_tail"] = steps.Median, steps.Tail
	v["ar.train_step_tail_pct"], v["ar.train_step_samples"] = steps.TailPct, float64(steps.N)
	v["ar.train_chains_per_s"] = over("ar.train", func(i int) float64 { return attr(i, "ar.train", "chains") / dur(i, "ar.train") })
	v["ar.train_alloc_mib"] = attrOf("ar.train", "alloc_mib")
	v["ar.train_gc_cycles"] = attrOf("ar.train", "gc_cycles")
	v["ar.compile_dropped"] = float64(dropped)
	v["ar.final_loss"] = over("ar.train", func(i int) float64 {
		_, loss, n := st.layerTotal(i, "ar.train", "final_loss")
		return loss / float64(n)
	})
	v["ar.eval_s"] = durOf("ar.eval")
	v["ar.eval_queries_per_s"] = over("ar.eval", func(i int) float64 { return attr(i, "ar.eval", "queries") / dur(i, "ar.eval") })
	qerrorQuantiles(v, "ar.model_qerror", tm.qe.model)
	qerrorQuantiles(v, "core.qerror_input", tm.qe.input)
	qerrorQuantiles(v, "core.qerror_test", tm.qe.test)

	v["core.sample_s"] = durOf("core.sample")
	v["core.sample_tuples_per_s"] = over("core.sample", func(i int) float64 { return attr(i, "core.sample", "tuples") / dur(i, "core.sample") })
	v["core.sample_alloc_mib"] = attrOf("core.sample", "alloc_mib")
	v["core.backpressure_wait_pct"] = over("core.sample", func(i int) float64 {
		return pct(attr(i, "core.sample", "backpressure_s"), attr(i, "core.sample", "shard_s"))
	})
	v["core.weight_s"] = durOf("core.weight")
	merge := func(i int) float64 {
		return dur(i, "core.merge") + dur(i, "core.pass_a") + dur(i, "core.pass_b") + dur(i, "core.pass_c")
	}
	v["core.merge_s"] = over("core.materialize", merge)
	v["core.merge_groups"] = over("core.materialize", func(i int) float64 {
		return attr(i, "core.merge", "groups") + attr(i, "core.pass_b", "groups")
	})
	v["core.materialize_alloc_mib"] = attrOf("core.materialize", "alloc_mib")
	v["core.gen_gc_cycles"] = over("core.sample", func(i int) float64 {
		return attr(i, "core.sample", "gc_cycles") + attr(i, "core.materialize", "gc_cycles")
	})
	for _, p := range []string{"a", "b", "c"} {
		layer := "core.pass_" + p
		v[layer+"_pct"] = over("core.materialize", func(i int) float64 { return pct(dur(i, layer), merge(i)) })
	}
	passAttr := func(key string) float64 {
		return over("core.materialize", func(i int) float64 {
			return attr(i, "core.pass_a", key) + attr(i, "core.pass_b", key) + attr(i, "core.pass_c", key)
		})
	}
	v["core.spill_bytes"] = passAttr("bytes_written")
	v["core.spill_runs"] = passAttr("runs")

	v["relation.shard_bytes"] = attrOf("core.sample", "shard_bytes")
	v["relation.csv_bytes"] = attrOf("relation.read_csv", "bytes")
	v["relation.read_csv_s"] = durOf("relation.read_csv")

	v["engine.label_s"] = durOf("engine.label")
	v["engine.eval_s"] = durOf("engine.eval")
	queries := summarize(spanMillis(st, "engine.query"))
	v["engine.query_ms_p50"], v["engine.query_ms_tail"] = queries.Median, queries.Tail
	v["engine.query_tail_pct"], v["engine.queries"] = queries.TailPct, float64(queries.N)
	v["datagen.s"] = durOf("datagen")
	v["workload.gen_s"] = durOf("workload.gen")

	var cover []float64
	for _, i := range st.roots("pipeline") {
		cover = append(cover, 100*(1-st.selfTime(i)/st.spans[i].dur()))
	}
	v["trace.layer_cover_pct"] = median(cover)
	v["trace.overhead_s"] = median(tm.traced) - median(tm.pipeline)
	v["host.ref_ms"] = median(tm.ref) * 1000
	v["host.pipeline_wall_s"] = median(tm.wall)
	return v
}

// pct is 100·part/whole, and 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// spanMillis returns the durations in milliseconds of every span named
// name.
func spanMillis(st *spanTree, name string) []float64 {
	var out []float64
	for i := range st.spans {
		if st.spans[i].Name == name {
			out = append(out, 1000*st.spans[i].dur())
		}
	}
	return out
}

// hooks returns observers that record the program's events as spans and
// attributes under the call span parent, or nil when the phase running now
// is untraced. The streaming path reports weighting and merging through
// StreamPass events; its GenPhase events overlap them and are skipped.
func (r *runner) hooks(parent int64, stream bool) *obs.Hooks {
	tr := r.tr
	if tr == nil {
		return nil
	}
	return &obs.Hooks{
		OnTrainStep:  func(s obs.TrainStep) { tr.event("ar.train_step", parent, s.Wall, nil) },
		OnTrainEpoch: func(e obs.TrainEpoch) { tr.attr(parent, "final_loss", e.Loss) },
		OnGenPhase: func(p obs.GenPhase) {
			if stream {
				return
			}
			switch p.Phase {
			case "weight":
				tr.event("core.weight", parent, p.Wall, nil)
			case "merge":
				tr.event("core.merge", parent, p.Wall, map[string]float64{"groups": float64(p.Groups)})
			}
		},
		OnStreamPass: func(p obs.StreamPass) {
			switch p.Pass {
			case "shard":
				tr.add(parent, "backpressure_s", p.BackpressureWait.Seconds())
				tr.add(parent, "shard_s", p.Wall.Seconds())
			case "weight":
				tr.event("core.weight", parent, p.Wall, nil)
			case "A", "B", "C":
				attrs := map[string]float64{"bytes_written": float64(p.BytesWritten), "runs": float64(p.Runs)}
				if p.Pass == "B" {
					attrs["groups"] = float64(p.RecordsOut)
				}
				tr.event("core.pass_"+strings.ToLower(p.Pass), parent, p.Wall, attrs)
			}
		},
		OnEvalQuery: func(q obs.EvalQuery) { tr.event("engine.query", parent, q.Wall, nil) },
	}
}

// phaseTable is the self time of every layer within one kind of root
// span, as the median over the roots of that kind.
type phaseTable struct {
	Phase  string     `json:"phase"`
	Roots  int        `json:"roots"`
	WallS  float64    `json:"wall_s"`
	Layers []layerRow `json:"layers"`
}

type layerRow struct {
	Layer    string  `json:"layer"`
	SelfS    float64 `json:"self_s"`
	SharePct float64 `json:"share_pct"`
}

// selfTimeTable computes the self-time table of the set-up, pipeline and
// evaluation roots.
func selfTimeTable(st *spanTree) []phaseTable {
	var out []phaseTable
	for _, phase := range []string{"setup", "pipeline", "evaluate"} {
		roots := st.roots(phase)
		if len(roots) == 0 {
			continue
		}
		per := map[string][]float64{}
		var walls []float64
		for k, i := range roots {
			walls = append(walls, st.spans[i].dur())
			for layer, s := range st.layerSelf(i) {
				// A layer missing from earlier roots ran for 0 s there.
				for len(per[layer]) < k {
					per[layer] = append(per[layer], 0)
				}
				per[layer] = append(per[layer], s)
			}
		}
		t := phaseTable{Phase: phase, Roots: len(roots), WallS: median(walls)}
		for layer, xs := range per {
			for len(xs) < len(roots) {
				xs = append(xs, 0)
			}
			self := median(xs)
			t.Layers = append(t.Layers, layerRow{Layer: layer, SelfS: self, SharePct: pct(self, t.WallS)})
		}
		sort.Slice(t.Layers, func(a, b int) bool { return t.Layers[a].SelfS > t.Layers[b].SelfS })
		out = append(out, t)
	}
	return out
}

func printSelfTimes(w io.Writer, tables []phaseTable) {
	for _, t := range tables {
		fmt.Fprintf(w, "pipebench: %s self time by layer (median of %d, wall %.3f s)\n", t.Phase, t.Roots, t.WallS)
		for _, l := range t.Layers {
			fmt.Fprintf(w, "  %-22s %10.4f s %6.2f%%\n", l.Layer, l.SelfS, l.SharePct)
		}
	}
}
