package exec

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/plan"
)

// The fixtures under testdata/ are checkpoints in format version 2, whose
// engine state sections end with a string-interner section (symbol table and
// a columnar-eligibility flag) that version 3 dropped. Both were written by
// the v2 encoder after feeding runTrace(2, 256)[:128] through batchFeed, with
// Config{LazyInterval: 7, EagerInterval: 1} and the UPA strategy:
//
//   - checkpoint_v2_q1.bin: Engine.Checkpoint of a single-query engine over
//     ckptQueries()[0] (Query 1); its interner section holds four symbols;
//   - checkpoint_v2_q1_4shards.bin: Sharded.Checkpoint of the same query on
//     four shards — one interner section per shard, each followed by the
//     next shard's state, so a reader that did not skip them would fail;
//   - checkpoint_v2_registry.bin: CheckpointRegistry of a registry with
//     ckptQueries()[0], groupByPlan() and ckptQueries()[2] registered as
//     q1, gb and q3; its interner section is empty.

func readV2Fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 9 || b[8] != 2 {
		t.Fatalf("%s is not a format-v2 checkpoint", name)
	}
	return b
}

// TestRestoreV2Checkpoint restores the single-query v2 fixtures, feeds the
// rest of the trace, and requires every visible signal to match a run that
// was never interrupted.
func TestRestoreV2Checkpoint(t *testing.T) {
	q := ckptQueries()[0]
	trace := runTrace(2, 256)
	for _, tc := range []struct {
		fixture string
		shards  int
	}{{"checkpoint_v2_q1.bin", 1}, {"checkpoint_v2_q1_4shards.bin", 4}} {
		t.Run(tc.fixture, func(t *testing.T) {
			// The straight run checkpoints at the cut too: a sharded
			// checkpoint is a batch barrier, which shifts shard-local state
			// sampling (Stats.MaxStateTuples) but nothing else.
			straight := buildExecutor(t, q, plan.UPA, tc.shards).(batchExecutor)
			batchFeed(t, straight, trace[:128])
			if err := straight.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
			batchFeed(t, straight, trace[128:])
			want := observe(t, straight)

			restored := buildExecutor(t, q, plan.UPA, tc.shards).(batchExecutor)
			if err := restored.Restore(bytes.NewReader(readV2Fixture(t, tc.fixture))); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			batchFeed(t, restored, trace[128:])
			diffObservations(t, "v2 restore", observe(t, restored), want)
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
	if err := restored.RestoreRegistry(bytes.NewReader(readV2Fixture(t, "checkpoint_v2_registry.bin"))); err != nil {
		t.Fatalf("RestoreRegistry: %v", err)
	}
	batchFeed(t, restored, trace[128:])
	if got := render(restored, rh); got != want {
		t.Fatalf("restored registry diverges\ngot:\n%swant:\n%s", got, want)
	}
}
