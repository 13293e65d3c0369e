package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
)

// perLayerQueries are the units that get per-unit layer metrics, in order.
var perLayerQueries = []string{
	layerName(bench.Q1FTP), layerName(bench.Q2Distinct), layerName(bench.Q3Negation),
	layerName(bench.Q4DistinctJoin), layerName(bench.Q5PushDown), layerName(bench.Q6GroupBy),
	"registry",
}

// operatorClasses are the operator classes that get operator layer metrics,
// named as the engine's Profile names them.
var operatorClasses = []string{"select", "project", "join", "distinct", "negate", "groupby", "rel-join", "nrr-join"}

// runTraced measures the per-layer metrics. The run has three phases of
// equal length, each on fresh engines and each checked when it ends: the
// workload as the untraced run drives it (plain), the same with the
// instrumentation flipped (a metrics registry added to the bare batch
// workloads, removed with the health ticks from registry-push), and the
// workload with the benchmark's spans recorded around every call into a
// layer (traced). Counts and runtime deltas come from the plain phase,
// operator times from whichever phase is instrumented, and span times from
// the traced phase. A phase's engines are dropped before the next starts.
func runTraced(sp spec, o options, log io.Writer) (*result, error) {
	res := &result{}
	run := fmt.Sprintf("%s-seed%d-%d", sp.name, o.seed, time.Now().UnixNano())
	rec := newRecorder(run)
	root := rec.begin(0, "run")
	gen := rec.begin(root, "trace.gen")
	in := genInputs(sp, o.seed)
	rec.end(gen)
	d := time.Duration(o.seconds / 3 * float64(time.Second))

	var aps [3]float64
	var counts, ops []metric
	var traced *phase
	var refTime, restoreTime time.Duration
	var drainNs int64
	for i, ph := range []struct {
		name         string
		instrumented bool
		rec          *recorder
	}{
		{"phase.plain", sp.instrumented, nil},
		{"phase.flipped", !sp.instrumented, nil},
		{"phase.traced", sp.instrumented, rec},
	} {
		id := rec.begin(root, ph.name)
		p, err := newPhase(sp, in, ph.instrumented, ph.rec, id)
		if err != nil {
			res.attempted, res.failed = res.attempted+1, res.failed+1
			res.finish()
			return res, fmt.Errorf("%s: %w", ph.name, err)
		}
		err = p.run(d)
		c := &checker{perturb: o.perturb, log: log}
		if err == nil {
			var rt, rs time.Duration
			rt, rs, err = p.check(c)
			if ph.rec != nil {
				refTime, restoreTime = rt, rs
				traced = p
				if err == nil {
					drainNs, err = p.drain()
				}
			}
		}
		rec.end(id)
		res.tally(p, c)
		if err != nil {
			res.finish()
			return res, fmt.Errorf("%s: %w", ph.name, err)
		}
		aps[i] = p.arrivalsPerSec()
		if i == 0 {
			counts = p.countMetrics()
		}
		if ph.instrumented && ops == nil {
			ops = p.operatorMetrics()
		}
	}
	rec.end(root)
	path, err := rec.write(o.spansDir)
	if err != nil {
		fmt.Fprintln(log, "perfbench: writing spans:", err)
	}

	// aps[0] ran as the workload defines it, aps[1] with the
	// instrumentation flipped.
	instrumented, bare := aps[0], aps[1]
	if !sp.instrumented {
		instrumented, bare = aps[1], aps[0]
	}
	ms := []metric{
		{"trace.gen_s", in.genTime.Seconds(), "s"},
		{"plan.build_ms", float64(traced.buildNs) / 1e6, "ms"},
		{"exec.register_ms", float64(traced.registerNs) / 1e6, "ms"},
		{"exec.fill_ms", float64(traced.fillNs) / 1e6, "ms"},
	}
	var calls int64
	ingestNs, arrivals := map[string]int64{}, map[string]int64{}
	for _, u := range traced.units {
		ingestNs[u.spec.name] += u.ingestNs
		arrivals[u.spec.name] += u.arrivals
		calls += u.calls
	}
	for _, q := range perLayerQueries {
		ms = append(ms, metric{"exec.ingest_ns_per_arrival." + q, ratio(ingestNs[q], arrivals[q]), "ns"})
	}
	ms = append(ms,
		metric{"exec.ingest_calls", float64(calls), "count"},
		metric{"exec.sync_ms", float64(traced.syncNs) / 1e6, "ms"},
		metric{"exec.drain_ms", float64(drainNs) / 1e6, "ms"},
	)
	ms = append(ms, counts...)
	ms = append(ms, ops...)
	ms = append(ms,
		metric{"relation.update_p50_us", float64(quantile(traced.updateNs, 0.50)) / 1e3, "us"},
		metric{"relation.update_p99_us", float64(quantile(traced.updateNs, 0.99)) / 1e3, "us"},
		metric{"relation.updates", float64(len(traced.updateNs)), "count"},
		metric{"checkpoint.encode_ms", float64(quantile(traced.ckptNs, 0.50)) / 1e6, "ms"},
		metric{"checkpoint.bytes", float64(traced.ckpt.Len()), "bytes"},
		metric{"checkpoint.restore_ms", float64(restoreTime.Nanoseconds()) / 1e6, "ms"},
		metric{"obs.health_tick_us", float64(quantile(traced.tickNs, 0.50)) / 1e3, "us"},
		metric{"obs.instrumented_over_bare", bare / instrumented, "ratio"},
		metric{"reference.eval_s", refTime.Seconds(), "s"},
		metric{"bench.trace_overhead", aps[0] / aps[2], "ratio"},
	)
	res.metrics = ms
	res.report = []metric{
		{"phase.plain.arrivals_per_s", aps[0], "1/s"},
		{"phase.flipped.arrivals_per_s", aps[1], "1/s"},
		{"phase.traced.arrivals_per_s", aps[2], "1/s"},
	}
	res.provenance = provenance(sp, o, in, traced.arrivals(), int64(len(traced.tableLog)), calls)
	res.provenance["spans"] = path
	res.finish()
	return res, nil
}

// countMetrics are the layer counts and runtime deltas of the timed region.
func (p *phase) countMetrics() []metric {
	arrivals := float64(p.arrivals())
	var deltas, live, planned, liveAll float64
	touched, unitArrivals := map[string]int64{}, map[string]int64{}
	for i, u := range p.units {
		st := u.eng.Stats()
		deltas += float64(st.Emitted - p.stats0[i].Emitted + st.Retracted - p.stats0[i].Retracted)
		sh := u.eng.Sharing()
		live += float64(sh.LiveNodes)
		planned += float64(sh.PlanNodes + sh.PlanSources)
		liveAll += float64(sh.LiveNodes + sh.LiveSources)
		touched[u.spec.name] += u.eng.Touched() - p.touched0[i]
		unitArrivals[u.spec.name] += u.arrivals
	}
	ms := []metric{
		{"exec.deltas_per_arrival", deltas / arrivals, "ratio"},
		{"exec.sharing_ratio", planned / liveAll, "ratio"},
		{"exec.live_nodes", live, "count"},
		{"exec.allocs_per_arrival", float64(p.mem1.Mallocs-p.mem0.Mallocs) / arrivals, "count"},
		{"exec.gc_cycles", float64(p.mem1.NumGC - p.mem0.NumGC), "count"},
		{"exec.gc_pause_ms", float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6, "ms"},
	}
	for _, q := range perLayerQueries {
		ms = append(ms, metric{"statebuf.touched_per_arrival." + q, ratio(touched[q], unitArrivals[q]), "count"})
	}
	return ms
}

// operatorMetrics read the engines' per-operator Profile over the timed
// region of an instrumented phase: time inside each operator class, and its
// input tuples per arrival.
func (p *phase) operatorMetrics() []metric {
	proc0, in0 := classTotals(p.prof0)
	proc1, in1 := classTotals(p.profiles())
	arrivals := float64(p.arrivals())
	var ms []metric
	for _, c := range operatorClasses {
		ms = append(ms,
			metric{"operator." + c + ".proc_ms", float64(proc1[c]-proc0[c]) / 1e6, "ms"},
			metric{"operator." + c + ".in_per_arrival", float64(in1[c]-in0[c]) / arrivals, "ratio"},
		)
	}
	return ms
}

// classTotals sums operator time and input tuples per class. A registry
// reports a shared operator once per query that uses it, with identical
// counters; such rows are counted once.
func classTotals(profs []exec.OpProfile) (proc, in map[string]int64) {
	proc, in = map[string]int64{}, map[string]int64{}
	seen := map[opKey]bool{}
	for _, op := range profs {
		k := keyOf(op)
		if seen[k] {
			continue
		}
		seen[k] = true
		proc[op.Class] += op.ProcNanos
		in[op.Class] += op.InPos + op.InNeg
	}
	return proc, in
}

// opKey identifies an operator row by its class and counters: the rows a
// registry repeats for a shared operator are identical.
type opKey struct {
	class                                 string
	inPos, inNeg, out, ret, proc, touched int64
}

func keyOf(op exec.OpProfile) opKey {
	return opKey{op.Class, op.InPos, op.InNeg, op.Emitted, op.Retracted, op.ProcNanos, op.Touched}
}

// ratio is n/d, or 0 for a layer the workload does not run.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
