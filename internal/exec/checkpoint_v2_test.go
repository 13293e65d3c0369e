package exec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/plan"
)

// The fixtures under testdata/ were all written after feeding
// runTrace(2, 256)[:128] through batchFeed, with Config{LazyInterval: 7,
// EagerInterval: 1} and the UPA strategy. The v2 files are in format version
// 2, whose engine state sections end with a string-interner section (symbol
// table and a columnar-eligibility flag) that version 3 dropped:
//
//   - checkpoint_v2_q1.bin: Engine.Checkpoint of a single-query engine over
//     ckptQueries()[0] (Query 1); its interner section holds four symbols;
//   - checkpoint_v2_q1_4shards.bin: a checkpoint of the same query written
//     by the since-removed key-partitioned executor on four shards — shard
//     count 4, then one state section (with its interner section) per shard;
//   - checkpoint_v3_q1_4shards.bin: the same four-shard layout in format
//     version 3;
//   - checkpoint_v2_registry.bin: CheckpointRegistry of a registry with
//     ckptQueries()[0], groupByPlan() and ckptQueries()[2] registered as
//     q1, gb and q3; its interner section is empty.
//
// The remaining fixtures are all format version 3 and were written by the
// removed key-partitioned executor with Config{LazyInterval: 7,
// EagerInterval: 1}:
//
//   - checkpoint_v3_q1_1shard.bin: one shard, Query 1 under UPA, after
//     ckptTrace(2)[:128] through Push — the layout a sequential engine
//     writes too;
//   - 4shards/restore-equivalence/<query>-<strategy>.bin: four shards, each
//     ckptQueries() shape under each strategy, at TestCheckpointRestore-
//     Equivalence's cut (ckptTrace[:128] through Push);
//   - 4shards/batch-midrun/<query>-<strategy>.bin: four shards, at
//     TestBatchCheckpointMidRun's cut inside a same-(stream, timestamp) run
//     of burstyTrace(streams, 43, 48), fed through feedBatches(…, 37);
//   - checkpoint_v3_groupcount_3shards.bin: the repro facade's checkpoint of
//     groupCountQuery under UPA on three shards, after groupCountTrace()[:80]
//     (read by the facade tests in the repository root).

// readFixture reads testdata/name and checks its format version byte.
func readFixture(t *testing.T, name string, version byte) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 9 || b[8] != version {
		t.Fatalf("%s is not a format-v%d checkpoint", name, version)
	}
	return b
}

// shardedFixture names the four-shard checkpoint of q under strat that
// the removed key-partitioned executor wrote at suite's cut.
func shardedFixture(suite string, q ckptQuery, strat plan.Strategy) string {
	return "4shards/" + suite + "/" + q.name + "-" + strat.String() + ".bin"
}

// rejectShardedCheckpoint restores ck, a checkpoint written on the given
// number of shards, into ex. The restore must fail with a shards
// *checkpoint.MismatchError and leave every visible signal of ex as it was.
func rejectShardedCheckpoint(t *testing.T, ex *Engine, ck []byte, shards int) {
	t.Helper()
	before := observeNoAdvance(t, ex)
	err := ex.Restore(bytes.NewReader(ck))
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("Restore error = %v, want *checkpoint.MismatchError", err)
	}
	if want := (checkpoint.MismatchError{Field: "shards", Want: "1", Got: strconv.Itoa(shards)}); *mm != want {
		t.Fatalf("MismatchError = %+v, want %+v", *mm, want)
	}
	if after := observeNoAdvance(t, ex); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("failed restore mutated state:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestRestoreV2Checkpoint restores the single-query v2 fixture, feeds the
// rest of the trace, and requires every visible signal to match a run that
// was never interrupted. The four-shard v2 fixture must be refused instead.
func TestRestoreV2Checkpoint(t *testing.T) {
	q := ckptQueries()[0]
	trace := runTrace(2, 256)
	t.Run("checkpoint_v2_q1.bin", func(t *testing.T) {
		straight := buildExecutor(t, q, plan.UPA)
		batchFeed(t, straight, trace[:128])
		if err := straight.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		batchFeed(t, straight, trace[128:])
		want := observe(t, straight)

		restored := buildExecutor(t, q, plan.UPA)
		if err := restored.Restore(bytes.NewReader(readFixture(t, "checkpoint_v2_q1.bin", 2))); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		batchFeed(t, restored, trace[128:])
		diffObservations(t, "v2 restore", observe(t, restored), want)
	})
	t.Run("checkpoint_v2_q1_4shards.bin", func(t *testing.T) {
		eng := buildExecutor(t, q, plan.UPA)
		batchFeed(t, eng, trace[:64])
		rejectShardedCheckpoint(t, eng, readFixture(t, "checkpoint_v2_q1_4shards.bin", 2), 4)
	})
}

// TestRestoreShardedCheckpointRejected: checkpoints the removed
// key-partitioned executor wrote on four shards fail with a shards
// *checkpoint.MismatchError, and the failed restore leaves the engine's
// clock, stats and view as they were.
func TestRestoreShardedCheckpointRejected(t *testing.T) {
	q := ckptQueries()[0]
	trace := runTrace(2, 256)
	for _, tc := range []struct {
		fixture string
		version byte
	}{{"checkpoint_v2_q1_4shards.bin", 2}, {"checkpoint_v3_q1_4shards.bin", 3}} {
		t.Run(tc.fixture, func(t *testing.T) {
			eng := buildExecutor(t, q, plan.UPA)
			batchFeed(t, eng, trace[:64])
			rejectShardedCheckpoint(t, eng, readFixture(t, tc.fixture, tc.version), 4)
		})
	}
}

// TestRestoreV2RegistryCheckpoint is TestRestoreV2Checkpoint for the
// registry format: every query's view, the shared counters and the clock of
// the restored registry must match an uninterrupted registry.
func TestRestoreV2RegistryCheckpoint(t *testing.T) {
	build := func() (*Engine, []*QueryHandle) {
		e := NewMulti(Config{LazyInterval: 7, EagerInterval: 1})
		var hs []*QueryHandle
		for _, s := range []struct {
			name string
			root *plan.Node
		}{{"q1", ckptQueries()[0].build()}, {"gb", groupByPlan()}, {"q3", ckptQueries()[2].build()}} {
			h, err := e.RegisterQuery(QuerySpec{Name: s.name, Phys: buildPhys(t, s.root, plan.UPA, plan.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		return e, hs
	}
	render := func(e *Engine, hs []*QueryHandle) string {
		if err := e.Advance(e.Clock() + 100); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, h := range hs {
			rows, err := h.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s:\n%s", h.Name(), renderRows(rows))
		}
		fmt.Fprintf(&b, "stats %+v clock %d watermark %d\n", e.Stats(), e.Clock(), e.Watermark())
		return b.String()
	}
	trace := runTrace(2, 256)

	straight, sh := build()
	batchFeed(t, straight, trace[:128])
	batchFeed(t, straight, trace[128:])
	want := render(straight, sh)

	restored, rh := build()
	if err := restored.RestoreRegistry(bytes.NewReader(readFixture(t, "checkpoint_v2_registry.bin", 2))); err != nil {
		t.Fatalf("RestoreRegistry: %v", err)
	}
	batchFeed(t, restored, trace[128:])
	if got := render(restored, rh); got != want {
		t.Fatalf("restored registry diverges\ngot:\n%swant:\n%s", got, want)
	}
}
