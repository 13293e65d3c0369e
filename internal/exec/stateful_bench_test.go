package exec

// Benchmarks pinning the stateful tail of the batch path: a bursty arrival
// stream pushed through PushBatch into a Q3-style grouped aggregation and a
// Q5-style negation, both compiled with the UPA strategy over a 5000-tick
// window. Engines run instrumented (metrics registry attached). The committed
// benchstat baselines in internal/bench/baselines/ingest_stateful.txt hold CI
// to them.

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/window"
)

// benchSelCut is the srcIP cutoff of the benchmarks' selective predicate:
// the harness rotates srcIP through [0, 20000), so srcIP < 2500 passes one
// arrival in eight — the paper's experiments all run their stateful operators
// behind a selective predicate like this (σ protocol=ftp).
const benchSelCut = 2500

func benchSelect(node *plan.Node) *plan.Node {
	return plan.NewSelect(node, operator.ColConst{
		Col: 0, Op: operator.LT, Val: tuple.Int(benchSelCut), Sel: float64(benchSelCut) / 20000,
	})
}

// benchGroupByEngine compiles "count and total bytes per protocol over the
// monitored address range" — a Q3-style selection feeding a grouped
// aggregation over one windowed link.
func benchGroupByEngine(b testing.TB, winSize int64) *Engine {
	b.Helper()
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: winSize}, linkSchema())
	root := plan.NewGroupBy(benchSelect(src), []int{1},
		operator.AggSpec{Kind: operator.Count},
		operator.AggSpec{Kind: operator.Sum, Col: 2},
	)
	return benchStatefulEngine(b, root)
}

// benchNegateEngine compiles a Q5-style negation over filtered links —
// σ(L1) − σ(L2) on srcIP — with asymmetric windows.
func benchNegateEngine(b testing.TB, winSize int64) *Engine {
	b.Helper()
	a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: winSize}, linkSchema())
	c := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: winSize + 500}, linkSchema())
	return benchStatefulEngine(b, plan.NewNegate(benchSelect(a), benchSelect(c), []int{0}, []int{0}))
}

func benchStatefulEngine(b testing.TB, root *plan.Node) *Engine {
	b.Helper()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		b.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(phys, Config{LazyInterval: 50, EagerInterval: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchBatchLen is the arrivals per PushBatch in the stateful benchmarks:
// runs of 64 per tick single-stream, 32 per tick per side for the negation.
const benchBatchLen = 256

// benchStatefulBatch builds the reusable bursty template over the given
// number of streams: 4 ticks, each a burst per stream. Eight protocols keep
// the group-by at eight live groups; srcIP rotation happens in freshenBatch.
func benchStatefulBatch(streams int) []Arrival {
	r := rand.New(rand.NewSource(29))
	protos := []string{"ftp", "http", "http", "telnet", "smtp", "dns", "ssh", "quic"}
	per := benchBatchLen / (4 * streams)
	batch := make([]Arrival, 0, benchBatchLen)
	for tick := 0; tick < 4; tick++ {
		for s := 0; s < streams; s++ {
			for n := 0; n < per; n++ {
				vals := []tuple.Value{
					tuple.Int(0),
					tuple.String_(protos[r.Intn(len(protos))]),
					tuple.Int(int64(r.Intn(100))),
				}
				batch = append(batch, Arrival{Stream: s, TS: int64(tick), Vals: vals})
			}
		}
	}
	return batch
}

// freshenBatch advances the template to the next 4-tick span, rotating the
// srcIP through a 20k-value domain, and gives every arrival a NEWLY allocated
// value slice. The engine takes ownership of pushed values — stored state
// aliases them for the lifetime of the window — so a producer must hand over
// fresh memory each run: restamping the same slices in place would mutate
// state underneath the engine and quietly turn expiration into a key-miss
// no-op. For the negation shape the wide domain keeps W1/W2 matches (and
// thus premature retractions) rare.
func freshenBatch(batch []Arrival, base int64, streams int) {
	per := benchBatchLen / (4 * streams)
	for i := range batch {
		batch[i].TS = base + int64(i/(per*streams))
		old := batch[i].Vals
		batch[i].Vals = []tuple.Value{
			tuple.Int((base*64 + int64(i)) % 20000), old[1], old[2],
		}
	}
}

// restampKeys is freshenBatch without the fresh slices: srcIP rotates in
// place, so the loop allocates nothing of its own. Only sound when nothing
// the engine stored is ever probed again — the allocation-budget test runs
// over a window too long to expire, where corrupting stored values cannot
// change behavior, and harness allocations would drown the signal it gates.
func restampKeys(batch []Arrival, base int64, streams int) {
	per := benchBatchLen / (4 * streams)
	for i := range batch {
		batch[i].TS = base + int64(i/(per*streams))
		batch[i].Vals[0] = tuple.Int((base*64 + int64(i)) % 20000)
	}
}

// BenchmarkIngestBatchGroupByUPA is the batch path over the grouped
// aggregation.
func BenchmarkIngestBatchGroupByUPA(b *testing.B) {
	benchIngestStateful(b, benchGroupByEngine(b, 5000), 1)
}

// BenchmarkIngestBatchNegateUPA is the batch path over the negation.
func BenchmarkIngestBatchNegateUPA(b *testing.B) {
	benchIngestStateful(b, benchNegateEngine(b, 5000), 2)
}

func benchIngestStateful(b *testing.B, eng *Engine, streams int) {
	batch := benchStatefulBatch(streams)
	base := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshenBatch(batch, base, streams)
		if err := eng.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
		base += 4
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
}
