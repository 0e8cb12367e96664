package main

import (
	"fmt"
	"runtime"
	"time"
)

// view is the aggregate of one trace's spans.
type view struct {
	name string
	t    *trace
	agg  map[string]layerTime
	root time.Duration
}

func newView(name string, t *trace) view {
	sp := t.snapshot()
	return view{name: name, t: t, agg: aggregate(sp), root: rootTime(sp)}
}

// perCall is the mean self time of the named spans in ms.
func (v view) perCall(name string) float64 {
	a := v.agg[name]
	return ratio(ms(a.Self), float64(a.Calls))
}

// frac is the share of the trace's root time spent in the named spans'
// self time.
func (v view) frac(names ...string) float64 {
	var self time.Duration
	for _, n := range names {
		self += v.agg[n].Self
	}
	return ratio(float64(self), float64(v.root))
}

// perLayer fills the per-layer metrics of a traced run. Each layer is
// read from the workload's own traced requests when they call it, and
// from the reference pass otherwise; the notes say which.
func perLayer(m *metricSet, main, ref *trace, ph *phase, before, after *runtime.MemStats, overhead float64) []string {
	mv, rv := newView("workload", main), newView("reference pass", ref)
	var notes []string
	from := func(layer, span string) view {
		v := mv
		if mv.agg[span].Calls == 0 {
			v = rv
		}
		a := v.agg[span]
		notes = append(notes, fmt.Sprintf("%s metrics from the %s: %d %s calls, self time %v", layer, v.name, a.Calls, span, a.Self))
		return v
	}

	v := from("core", "core.solve")
	c := v.t.c
	m.add("core.solve_ms", "ms", v.perCall("core.solve"))
	m.add("core.solve_frac", "frac", v.frac("core.solve"))
	m.add("core.nodes", "count", ratio(float64(c.nodes), float64(c.solves)))
	m.add("core.nodes_per_s", "1/s", ratio(float64(c.nodes), v.agg["core.solve"].Self.Seconds()))
	m.add("core.prune_ratio", "frac", ratio(float64(c.pruned), float64(c.pruned+c.nodes)))
	m.add("core.iso_hit_ratio", "frac", ratio(float64(c.isoHits), float64(c.isoLookups)))

	v = from("topology", "topology.glue")
	m.add("topology.glue_ms", "ms", v.perCall("topology.glue"))

	v = from("routing", "routing.build")
	c = v.t.c
	var tableBytes, lazy int64
	for _, ct := range c.tables {
		tableBytes += ct.MemoryFootprint()
		lazy += ct.LazyCompiles()
	}
	m.add("routing.build_ms", "ms", v.perCall("routing.build"))
	m.add("routing.vc_ms", "ms", v.perCall("routing.vc"))
	m.add("routing.compile_ms", "ms", v.perCall("routing.compile"))
	m.add("routing.compile_frac", "frac", v.frac("routing.build", "routing.vc", "routing.compile"))
	m.add("routing.table_kb", "KB", ratio(float64(tableBytes)/1024, float64(len(c.tables))))
	m.add("routing.lazy_compiles", "count", float64(lazy))

	v = from("noc", "noc.run")
	c = v.t.c
	m.add("noc.build_batch_ms", "ms", v.perCall("noc.build_batch"))
	m.add("noc.run_ms", "ms", v.perCall("noc.run"))
	m.add("noc.run_frac", "frac", v.frac("noc.run"))
	m.add("noc.encode_ms", "ms", v.perCall("noc.encode"))
	m.add("noc.plan_misses", "count", float64(c.planMisses))
	m.add("noc.sim_cycles", "count", float64(c.simCycles))
	m.add("noc.delivered_pkts", "count", float64(c.delivered))

	v = from("aes", "aes.run")
	c = v.t.c
	m.add("aes.run_ms", "ms", v.perCall("aes.run"))
	m.add("aes.cycles_per_block", "cycles", ratio(c.aesCyclesPerBlock, float64(c.aesRuns)))

	v = from("repro", "repro.encode")
	c = v.t.c
	m.add("repro.encode_ms", "ms", v.perCall("repro.encode"))
	m.add("repro.result_kb", "KB", ratio(float64(c.resultBytes)/1024, float64(c.results)))

	v = from("frontier", "frontier.enumerate")
	c = v.t.c
	m.add("frontier.enumerate_ms", "ms", v.perCall("frontier.enumerate"))
	m.add("frontier.points", "count", ratio(float64(c.frontPts), float64(c.frontiers)))

	v = from("service", "service.request")
	c = v.t.c
	req, run := v.agg["service.request"], v.agg["service.job_run"]
	m.add("service.queue_wait_ms", "ms", ratio(ms(v.agg["service.queue_wait"].Total), float64(v.agg["service.queue_wait"].Calls)))
	m.add("service.job_run_ms", "ms", ratio(ms(run.Total), float64(run.Calls)))
	m.add("service.overhead_ms", "ms", ratio(ms(req.Total-run.Total), float64(req.Calls)))
	m.add("service.cache_hit_ratio", "frac", c.svcHitRatio)
	m.add("service.coalesced", "count", float64(c.svcCoalesced))
	m.add("service.solves", "count", float64(c.svcSolves))

	n := float64(len(ph.lat))
	m.add("go.alloc_mb_per_req", "MB", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), n))
	m.add("go.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	m.add("go.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.add("trace.overhead_frac", "frac", overhead)
	return notes
}
