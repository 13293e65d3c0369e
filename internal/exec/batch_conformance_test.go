package exec

// Batch-execution conformance: PushBatch must be observationally equivalent to
// tuple-at-a-time Push — identical view, result count, and emission counters —
// for every paper query shape and every strategy, and the batch path must
// still agree with the reference evaluator's from-scratch recomputation. A
// checkpoint taken mid-batch (the cut splitting a same-(stream, timestamp)
// run across two PushBatch calls) must restore into an executor
// indistinguishable from the uninterrupted one.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/window"
)

// burstyTrace emits several tuples per (stream, timestamp) — the run shape the
// batch path coalesces — round-robining timestamps over the query's streams.
func burstyTrace(streams int, seed int64, ticks int) []Arrival {
	r := rand.New(rand.NewSource(seed))
	var out []Arrival
	for ts := int64(0); ts < int64(ticks); ts++ {
		for s := 0; s < streams; s++ {
			burst := 1 + r.Intn(3)
			for b := 0; b < burst; b++ {
				out = append(out, Arrival{Stream: s, TS: ts, Vals: rndTuple(r)})
			}
		}
	}
	return out
}

// feedBatches pushes the trace through PushBatch in fixed-size chunks. The
// chunk size is deliberately odd so chunk boundaries split same-timestamp runs
// — the executor must handle a run resuming in the next call.
func feedBatches(t *testing.T, ex *Engine, trace []Arrival, chunk int) {
	t.Helper()
	for i := 0; i < len(trace); i += chunk {
		j := i + chunk
		if j > len(trace) {
			j = len(trace)
		}
		if err := ex.PushBatch(trace[i:j]); err != nil {
			t.Fatalf("PushBatch[%d:%d]: %v", i, j, err)
		}
	}
}

// runTrace emits runs of one to four arrivals per (stream, timestamp) with
// irregular gaps between timestamps — bursts that batchFeed's uneven chunks
// then split at varying offsets.
func runTrace(streams, n int) []Arrival {
	r := rand.New(rand.NewSource(17))
	out := make([]Arrival, 0, n)
	ts := int64(0)
	for len(out) < n {
		ts += int64(1 + r.Intn(3))
		s := r.Intn(streams)
		for k := 1 + r.Intn(4); k > 0 && len(out) < n; k-- {
			out = append(out, Arrival{Stream: s, TS: ts, Vals: rndTuple(r)})
		}
	}
	return out
}

// batchFeed pushes the trace through PushBatch in uneven chunks (5 to 11
// arrivals), so runs of several same-timestamp arrivals form and chunk
// boundaries land at varying offsets.
func batchFeed(t *testing.T, ex *Engine, trace []Arrival) {
	t.Helper()
	for i := 0; i < len(trace); {
		j := i + 5 + (i/5)%7
		if j > len(trace) {
			j = len(trace)
		}
		if err := ex.PushBatch(trace[i:j]); err != nil {
			t.Fatalf("PushBatch[%d:%d]: %v", i, j, err)
		}
		i = j
	}
}

// TestBatchConformance: batch ≡ tuple-at-a-time ≡ reference for all five paper
// queries × NT/DIRECT/UPA.
func TestBatchConformance(t *testing.T) {
	for _, q := range ckptQueries() {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			t.Run(fmt.Sprintf("%s/%v/shards=1", q.name, strat), func(t *testing.T) {
				trace := burstyTrace(q.streams, 41, 48)

				seq := buildExecutor(t, q, strat)
				feed(t, seq, trace)
				seqObs := observe(t, seq)

				bat := buildExecutor(t, q, strat)
				feedBatches(t, bat, trace, 37)
				batObs := observe(t, bat)

				// The state-size gauge is sampled per call, so batch
				// boundaries shift the sampled peak; everything else must
				// be exact.
				seqObs.stats.MaxStateTuples = 0
				batObs.stats.MaxStateTuples = 0
				diffObservations(t, "batch vs tuple-at-a-time", batObs, seqObs)

				// Definition 1/2: the batch view equals the reference
				// evaluator's from-scratch recomputation.
				root := q.build()
				if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
					t.Fatalf("Annotate: %v", err)
				}
				ref := reference.New(root)
				for _, a := range trace {
					ref.Push(a.Stream, a.TS, a.Vals...)
				}
				want, err := ref.Eval(400)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				snap, err := bat.Snapshot()
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				if !reference.SameBag(reference.RowsOf(snap), want) {
					t.Fatalf("batch view diverged from reference\nengine (%d rows):\n%s\nreference (%d rows):\n%s",
						len(snap), reference.Render(reference.RowsOf(snap)), len(want), reference.Render(want))
				}
			})
		}
	}
}

// TestBatchCheckpointMidRun checkpoints at a cut inside a same-(stream,
// timestamp) run — so the run is split across the checkpoint — and requires
// the restored executor to be indistinguishable from the one that kept going.
// The shards=4 leg offers the checkpoint a four-shard key-partitioned
// executor wrote at the same cut; it must be refused, and the refusing
// executor must finish indistinguishable from one that was never offered it.
func TestBatchCheckpointMidRun(t *testing.T) {
	for _, q := range ckptQueries() {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			t.Run(fmt.Sprintf("%s/%v/shards=1", q.name, strat), func(t *testing.T) {
				trace := burstyTrace(q.streams, 43, 48)
				cut := midRunCut(t, trace)

				b := buildExecutor(t, q, strat)
				feedBatches(t, b, trace[:cut], 37)
				var ckpt bytes.Buffer
				if err := b.Checkpoint(&ckpt); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				feedBatches(t, b, trace[cut:], 37)
				bObs := observe(t, b)

				c := buildExecutor(t, q, strat)
				if err := c.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				feedBatches(t, c, trace[cut:], 37)
				cObs := observe(t, c)

				diffObservations(t, "restored-mid-run vs continued", cObs, bObs)
			})
			t.Run(fmt.Sprintf("%s/%v/shards=4", q.name, strat), func(t *testing.T) {
				trace := burstyTrace(q.streams, 43, 48)
				cut := midRunCut(t, trace)

				// B reads its view at the cut as the refused restore does.
				b := buildExecutor(t, q, strat)
				feedBatches(t, b, trace[:cut], 37)
				observeNoAdvance(t, b)
				feedBatches(t, b, trace[cut:], 37)
				bObs := observe(t, b)

				c := buildExecutor(t, q, strat)
				feedBatches(t, c, trace[:cut], 37)
				rejectShardedCheckpoint(t, c, readFixture(t, shardedFixture("batch-midrun", q, strat), 3), 4)
				feedBatches(t, c, trace[cut:], 37)
				diffObservations(t, "refused-mid-run vs uninterrupted", observe(t, c), bObs)
			})
		}
	}
}

// midRunCut returns the first index at or after the middle of trace that
// splits a same-(stream, timestamp) run.
func midRunCut(t *testing.T, trace []Arrival) int {
	t.Helper()
	cut := len(trace) / 2
	for cut < len(trace) &&
		!(trace[cut].Stream == trace[cut-1].Stream && trace[cut].TS == trace[cut-1].TS) {
		cut++
	}
	if cut >= len(trace) {
		t.Fatal("trace has no same-(stream,ts) run near the middle")
	}
	return cut
}

// TestPushBatchMatchesPush proves batched ingest is semantically identical
// to tuple-at-a-time ingest on the sequential engine.
func TestPushBatchMatchesPush(t *testing.T) {
	root := plan.NewDistinct(plan.NewProject(
		plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 15}, linkSchema()), 0, 1))
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	mkEng := func() *Engine {
		phys, err := plan.Build(root, plan.UPA, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(phys, Config{LazyInterval: 4})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	one, batched := mkEng(), mkEng()
	r := rand.New(rand.NewSource(61))
	var batch []Arrival
	ts := int64(0)
	for i := 0; i < 300; i++ {
		ts += int64(r.Intn(2))
		vals := rndTuple(r)
		if err := one.Push(0, ts, vals...); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, Arrival{Stream: 0, TS: ts, Vals: vals})
		if len(batch) == 7 {
			if err := batched.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if err := batched.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	a, err := one.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reference.SameBag(reference.RowsOf(a), reference.RowsOf(b)) {
		t.Fatalf("batched snapshot diverged:\npush:\n%s\nbatch:\n%s",
			reference.Render(reference.RowsOf(a)), reference.Render(reference.RowsOf(b)))
	}
	sa, sb := one.Stats(), batched.Stats()
	if sa.Arrivals != sb.Arrivals || sa.Emitted != sb.Emitted || sa.Retracted != sb.Retracted {
		t.Fatalf("stats diverged: push %+v vs batch %+v", sa, sb)
	}
}
