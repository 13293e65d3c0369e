package exec

// Allocation-regression gate for batched ingest: steady-state PushBatch on
// the Query 1 shape (join of ftp-selections, UPA plan) must stay within a
// fixed allocation budget per 64-arrival batch. The budget covers what is
// inherently per-result (join output tuples, view mutations) with headroom;
// the point is to fail the build if a change re-introduces per-tuple
// overheads the batch path exists to remove — per-call emission slices,
// per-tuple variadic boxing, unpooled buffers.
//
// Skipped under -race (detector bookkeeping allocates); CI runs the gates in
// a dedicated non-race step.

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/race"
)

// ingestAllocBudget is the checked-in ceiling for one steady-state 64-arrival
// PushBatch on the Q1/UPA plan. Measured ~52 on a warm engine, almost all of
// it inherent per-join-result work (this trace's narrow key domain produces a
// join result for most selected arrivals, and each result Concat-allocates
// its value slice). The headroom absorbs scheduling noise and occasional
// bucket reshaping — not a return to per-call emission slices, per-tuple
// variadic boxing, or per-probe visitor closures, which would add 64+ per
// batch and trip the gate.
const ingestAllocBudget = 70.0

// groupByAllocBudget is the checked-in ceiling for one steady-state
// benchBatchLen-arrival PushBatch on the Q6-style group-by (a selection in
// front of a per-protocol count/sum), over a window too long for expiry
// waves to fire. Measured 0 (testing.AllocsPerRun floors the mean): the ~32
// arrivals per batch that pass the selection each update their group and
// emit one replacement row, whose values are carved from the group-by's
// arena, so what remains is amortized growth — an arena slab or a buffer
// page every few batches. A per-row allocation would add ~32 and trip it.
const groupByAllocBudget = 1.0

// TestBatchIngestAllocBudget gates steady-state PushBatch allocations on the
// Q1 join shape and the Q6 group-by shape.
func TestBatchIngestAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	t.Run("q1", func(t *testing.T) {
		q := ckptQueries()[0] // Q1-join-of-selects
		eng := buildExecutor(t, q, plan.UPA, 1).(*Engine)

		// A reusable 64-arrival batch: 8 ticks × 2 streams × 4-tuple bursts.
		// Vals are generated once; only timestamps advance between runs.
		r := rand.New(rand.NewSource(17))
		batch := make([]Arrival, 0, 64)
		for tick := 0; tick < 8; tick++ {
			for s := 0; s < 2; s++ {
				for b := 0; b < 4; b++ {
					batch = append(batch, Arrival{Stream: s, TS: int64(tick), Vals: rndTuple(r)})
				}
			}
		}
		base := int64(0)
		runOnce := func() {
			for i := range batch {
				batch[i].TS = base + int64(i/8)
			}
			if err := eng.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			base += 8
		}
		// Warm far past the 20-tick window horizon so buffer capacities, the
		// view, and the emit pool reach steady state.
		for i := 0; i < 64; i++ {
			runOnce()
		}
		got := testing.AllocsPerRun(100, runOnce)
		t.Logf("steady-state PushBatch: %.1f allocs per 64-arrival batch (%.2f/tuple)", got, got/64)
		if got > ingestAllocBudget {
			t.Errorf("steady-state PushBatch: %.1f allocs per 64-arrival batch, budget %.1f", got, ingestAllocBudget)
		}
	})
	t.Run("q6-groupby", func(t *testing.T) {
		eng := benchGroupByEngine(t, 1<<30)
		batch := benchStatefulBatch(1)
		base := int64(0)
		runOnce := func() {
			restampKeys(batch, base, 1)
			if err := eng.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
			base += 4
		}
		// Warm until maps, buffers, and the view reach steady capacity for
		// the 20k-key domain.
		for i := 0; i < 2048; i++ {
			runOnce()
		}
		got := testing.AllocsPerRun(200, runOnce)
		t.Logf("steady-state PushBatch: %.2f allocs per %d-arrival batch (%.4f/tuple)", got, benchBatchLen, got/benchBatchLen)
		if got > groupByAllocBudget {
			t.Errorf("steady-state PushBatch: %.2f allocs per %d-arrival batch, budget %.2f", got, benchBatchLen, groupByAllocBudget)
		}
	})
}

// TestBatchIngestAllocBudgetInstrumented holds the instrumented engine
// (metrics registry attached: wall-clock timing, delta-latency histograms,
// conformance monitor all live; span sampling off) to the same steady-state
// budget as the bare engine. The PR 6 instruments are atomic adds into
// preallocated cells, so turning them on must not add a single allocation
// per tuple.
func TestBatchIngestAllocBudgetInstrumented(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	q := ckptQueries()[0] // Q1-join-of-selects
	eng := buildInstrumented(t, q, plan.UPA, 1).(*Engine)

	r := rand.New(rand.NewSource(17))
	batch := make([]Arrival, 0, 64)
	for tick := 0; tick < 8; tick++ {
		for s := 0; s < 2; s++ {
			for b := 0; b < 4; b++ {
				batch = append(batch, Arrival{Stream: s, TS: int64(tick), Vals: rndTuple(r)})
			}
		}
	}
	base := int64(0)
	runOnce := func() {
		for i := range batch {
			batch[i].TS = base + int64(i/8)
		}
		if err := eng.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		base += 8
	}
	for i := 0; i < 64; i++ {
		runOnce()
	}
	got := testing.AllocsPerRun(100, runOnce)
	t.Logf("steady-state instrumented PushBatch: %.1f allocs per 64-arrival batch (%.2f/tuple)", got, got/64)
	if got > ingestAllocBudget {
		t.Errorf("steady-state instrumented PushBatch: %.1f allocs per 64-arrival batch, budget %.1f", got, ingestAllocBudget)
	}
	if pos, _ := eng.DeltaLatency(); pos.Count == 0 {
		t.Error("instrumented run recorded no delta latency")
	}
}
