package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/window"
)

// spec is one workload's fixed shape.
type spec struct {
	name string
	// window is every query's sliding-window size in time units.
	window int64
	// batch is arrivals per ingest call: a PushBatch of that many, or a
	// single Push when batch is 1.
	batch int
	// instrumented runs the engine with a metrics registry and ticks its
	// built-in health rules every healthEvery arrivals.
	instrumented bool
	healthEvery  int64
	// tableEvery and checkpointEvery space registry-push's table updates and
	// CheckpointRegistry calls, in arrivals; 0 disables them.
	tableEvery, checkpointEvery int64
	// cpuEvery is how often a timed ingest call also reads the caller
	// thread's CPU clock for ingest_cpu_p99_us: every cpuEvery-th call.
	cpuEvery int64
	// units are the engines, fed round-robin one ingest call at a time.
	units []unitSpec
}

// unitSpec is one engine and the trace that feeds it.
type unitSpec struct {
	// name is the layer suffix of the unit's per-layer metrics.
	name  string
	links int
	skew  float64
	// queries are registered on the engine in order; one query builds the
	// engine with exec.New, several build a registry with NewMulti.
	queries []querySpec
	// registry builds the engine with NewMulti + RegisterQuery even for a
	// single query.
	registry bool
}

// querySpec builds one query's logical plan over the unit's tables (nil for
// the batch workloads), with the statistics Annotate gets.
type querySpec struct {
	name  string
	build func(w int64, tables [2]*relation.Table) *plan.Node
	stats plan.Stats
}

func paperQuery(q bench.Query) querySpec {
	return querySpec{
		name:  layerName(q),
		build: func(w int64, _ [2]*relation.Table) *plan.Node { return bench.BuildPlan(q, w) },
		stats: bench.PlanStats(q, srcHosts),
	}
}

// layerName is the per-layer metric suffix of a paper query: "q3-negation".
func layerName(q bench.Query) string { return strings.ToLower(q.String()) }

func paperUnit(q bench.Query) unitSpec {
	return unitSpec{name: layerName(q), links: q.Links(), skew: q.SrcSkew(), queries: []querySpec{paperQuery(q)}}
}

// registryQueries is registry-push's query set: 32 payload-threshold
// variants of Query 1 sharing one ftp join, Queries 2, 3 and 6, and one
// window joined with a retroactive relation and one with an NRR.
func registryQueries() []querySpec {
	const variants = 32
	var qs []querySpec
	for i := 0; i < variants; i++ {
		cut := int64(i) * (1 << 13) / variants
		qs = append(qs, querySpec{
			name: fmt.Sprintf("q1-ftp-payload-gt-%d", cut),
			build: func(w int64, _ [2]*relation.Table) *plan.Node {
				return plan.NewSelect(bench.BuildPlan(bench.Q1FTP, w), operator.ColConst{
					Col: trace.ColPayload, Op: operator.GT, Val: tuple.Int(cut),
					Sel: 1 - float64(cut)/float64(1<<14),
				})
			},
			stats: bench.PlanStats(bench.Q1FTP, srcHosts),
		})
	}
	qs = append(qs, paperQuery(bench.Q2Distinct), paperQuery(bench.Q3Negation), paperQuery(bench.Q6GroupBy))
	win := func(link int, w int64) *plan.Node {
		return plan.NewSource(link, window.Spec{Type: window.TimeBased, Size: w}, trace.Schema())
	}
	qs = append(qs,
		querySpec{
			name: "window-join-relation",
			build: func(w int64, t [2]*relation.Table) *plan.Node {
				return plan.NewRelJoin(win(0, w), t[0], []int{trace.ColSrc}, []int{0})
			},
			stats: bench.PlanStats(bench.Q1FTP, srcHosts),
		},
		querySpec{
			name: "window-join-nrr",
			build: func(w int64, t [2]*relation.Table) *plan.Node {
				return plan.NewNRRJoin(win(1, w), t[1], []int{trace.ColSrc}, []int{0})
			},
			stats: bench.PlanStats(bench.Q1FTP, srcHosts),
		})
	return qs
}

// newTables builds registry-push's two tables: table 0 is a retroactive
// relation, table 1 an NRR. A restored registry gets tables of its own.
func newTables() [2]*relation.Table {
	return [2]*relation.Table{
		relation.NewRelation("hosts", tableSchema()),
		relation.NewNRR("hosts-nrr", tableSchema()),
	}
}

// Workload names.
const (
	joinBatch     = "join-batch"
	statefulBatch = "stateful-batch"
	registryPush  = "registry-push"
)

var workloadNames = []string{joinBatch, statefulBatch, registryPush}

// specFor returns the named workload's shape.
func specFor(name string) (spec, error) {
	switch name {
	case joinBatch:
		// Four engines, each running Query 1 over its own pair of links:
		// the state one engine holds is small enough that its peak and
		// heap vary with the seed by ~8%; four independent ones halve that.
		q1 := paperUnit(bench.Q1FTP)
		return spec{
			name:   name,
			window: 10000, batch: 256, cpuEvery: 1,
			units: []unitSpec{q1, q1, q1, q1},
		}, nil
	case statefulBatch:
		// Batches of 64 give four times the calls of 256, so the latency
		// quantiles rest on more calls.
		return spec{
			name:   name,
			window: 10000, batch: 64, cpuEvery: 1,
			units: []unitSpec{
				paperUnit(bench.Q2Distinct), paperUnit(bench.Q3Negation), paperUnit(bench.Q4DistinctJoin),
				paperUnit(bench.Q5PushDown), paperUnit(bench.Q6GroupBy),
			},
		}, nil
	case registryPush:
		// One trace feeds every query, so it uses uniform sources as the
		// paper's join queries do: under Zipf 1.1 sources the 32 join
		// variants triple peak state and swamp the rest of the registry.
		return spec{
			name: name,
			// A Push takes ~8 us and the two CPU clock reads ~1 us, so only
			// every 7th call reads the clock. 7 is prime to the powers of
			// two that space the side work: with 8, every call right after a
			// table update was sampled, and the p99 was theirs.
			window: 5000, batch: 1, cpuEvery: 7,
			instrumented: true, healthEvery: 4096,
			tableEvery: 512, checkpointEvery: 65536,
			units: []unitSpec{{name: "registry", links: 2, skew: 0.5, queries: registryQueries(), registry: true}},
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}
