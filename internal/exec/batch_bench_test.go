package exec

// Benchmarks pinning the ingest path: the same bursty arrival stream pushed
// one arrival per call (Push, a batch of one) and run-coalesced (PushBatch)
// into the paper's Query 1 (join of ftp-selections) compiled with the UPA
// strategy over a 5000-tick window. The committed benchstat baselines in
// internal/bench/baselines/ingest_q1upa.txt hold CI to them.

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/window"
)

// benchQ1Engine compiles Query 1 (UPA, time window of size ticks) fresh.
// The engine runs in its observable configuration (metrics registry
// attached, as `upaquery -metrics` deploys it): per-call instrumentation —
// wall-clock sampling around every Push and every operator invocation — is
// one of the overheads the batch path amortizes per run instead of paying
// per tuple, so the instrumented engine is where the tuple/batch contrast is
// representative. BENCH_PR5.json records the bare-engine numbers alongside.
func benchQ1Engine(b testing.TB, winSize int64, metrics bool) *Engine {
	b.Helper()
	ftpSel := func(id int) *plan.Node {
		src := plan.NewSource(id, window.Spec{Type: window.TimeBased, Size: winSize}, linkSchema())
		return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_("ftp")})
	}
	root := plan.NewJoin(ftpSel(0), ftpSel(1), []int{0}, []int{0})
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		b.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{LazyInterval: 50, EagerInterval: 1}
	if metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	eng, err := New(phys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchBatch builds the reusable 64-arrival bursty template: 4 ticks × 2
// streams × 8-tuple bursts, the run shape PushBatch coalesces. Timestamps and
// join keys are rewritten in place each iteration (fresh keys keep matches
// rare over the 5000-tick window, so the benchmark measures the ingest path,
// not join-result fan-out).
func benchBatch() []Arrival {
	r := rand.New(rand.NewSource(23))
	// ftp is a minority protocol in a link trace; the Query 1 selections drop
	// most arrivals, which is exactly when per-tuple dispatch overhead — the
	// thing batching amortizes — shows up.
	protos := []string{"ftp", "http", "http", "telnet", "smtp", "dns", "ssh", "quic"}
	batch := make([]Arrival, 0, 64)
	for tick := 0; tick < 4; tick++ {
		for s := 0; s < 2; s++ {
			for n := 0; n < 8; n++ {
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

// restamp advances the template to the next 4-tick span and rotates the join
// keys through a 20k-value domain — wide enough that matches stay rare and
// hash buckets stay shallow, narrow enough that the key map reaches a steady
// size instead of churning an entry per tuple. Arrivals are mutated in place
// so the timed loops allocate nothing of their own.
func restamp(batch []Arrival, base int64) {
	for i := range batch {
		batch[i].TS = base + int64(i/16)
		batch[i].Vals[0] = tuple.Int((base*16 + int64(i)) % 20000)
	}
}

// BenchmarkIngestTupleQ1UPA is the tuple-at-a-time baseline.
func BenchmarkIngestTupleQ1UPA(b *testing.B) {
	benchIngestTuple(b, true)
}

// BenchmarkIngestTupleQ1UPABare is the same baseline on an uninstrumented
// engine (no metrics registry).
func BenchmarkIngestTupleQ1UPABare(b *testing.B) {
	benchIngestTuple(b, false)
}

func benchIngestTuple(b *testing.B, metrics bool) {
	eng := benchQ1Engine(b, 5000, metrics)
	batch := benchBatch()
	base := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restamp(batch, base)
		for _, a := range batch {
			if err := eng.Push(a.Stream, a.TS, a.Vals...); err != nil {
				b.Fatal(err)
			}
		}
		base += 4
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
}

// BenchmarkIngestBatchQ1UPA is the run-coalescing batch path over the
// identical arrival stream.
func BenchmarkIngestBatchQ1UPA(b *testing.B) {
	benchIngestBatch(b, true)
}

// BenchmarkIngestBatchQ1UPABare is the batch path on an uninstrumented
// engine (no metrics registry).
func BenchmarkIngestBatchQ1UPABare(b *testing.B) {
	benchIngestBatch(b, false)
}

func benchIngestBatch(b *testing.B, metrics bool) {
	eng := benchQ1Engine(b, 5000, metrics)
	batch := benchBatch()
	base := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restamp(batch, base)
		if err := eng.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
		base += 4
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tuples/sec")
}
