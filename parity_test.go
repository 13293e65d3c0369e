package repro_test

// Facade parity: a sequential engine and a key-partitioned sharded engine
// compiled from the same query must agree on every public signal — snapshot,
// result count, cumulative stats, watermark, explain output, keyed lookups —
// over a fixed trace, and their checkpoints must round-trip through
// repro.Open back to the same state.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro"
)

func parityQuery(schema *repro.Schema) repro.Node {
	return repro.Stream(0, schema, repro.TimeWindow(60)).
		GroupBy([]string{"src"}, repro.CountAll(), repro.SumOf("bytes"))
}

func parityTrace() []repro.Arrival {
	protos := []string{"ftp", "http", "ftp", "telnet"}
	out := make([]repro.Arrival, 0, 160)
	for ts := int64(1); ts <= 160; ts++ {
		out = append(out, repro.Arrival{
			Stream: 0,
			TS:     ts,
			Vals:   []repro.Value{repro.Int(ts % 7), repro.Str(protos[ts%4]), repro.Int(ts % 50)},
		})
	}
	return out
}

func sortedRows(t *testing.T, eng *repro.Engine) []string {
	t.Helper()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	rows := make([]string, 0, len(snap))
	for _, tp := range snap {
		rows = append(rows, tp.String())
	}
	sort.Strings(rows)
	return rows
}

func TestSequentialShardedParity(t *testing.T) {
	schema := linkSchema()
	seq, err := repro.Compile(parityQuery(schema), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := repro.Compile(parityQuery(schema), repro.UPA, repro.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.Shards() != 4 {
		t.Fatalf("Shards() = %d (%s)", sh.Shards(), sh.ShardFallbackReason())
	}

	trace := parityTrace()
	for _, a := range trace {
		if err := seq.Push(a.Stream, a.TS, a.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.PushBatch(trace); err != nil {
		t.Fatal(err)
	}

	// Snapshot and result count.
	seqRows, shRows := sortedRows(t, seq), sortedRows(t, sh)
	if fmt.Sprint(seqRows) != fmt.Sprint(shRows) {
		t.Fatalf("snapshots diverge:\nseq %v\nsh  %v", seqRows, shRows)
	}
	n1, err := seq.ResultCount()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := sh.ResultCount()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 != len(seqRows) {
		t.Fatalf("ResultCount: seq %d, sharded %d, rows %d", n1, n2, len(seqRows))
	}

	// Cumulative stats agree except the sampled state peak, whose sampling
	// points depend on per-shard batch boundaries.
	s1, s2 := seq.Stats(), sh.Stats()
	s1.MaxStateTuples, s2.MaxStateTuples = 0, 0
	if s1 != s2 {
		t.Fatalf("Stats diverge: seq %+v, sharded %+v", s1, s2)
	}

	// After the snapshot-induced Sync both watermarks sit at their clock.
	if seq.Watermark() != seq.Clock() || sh.Watermark() != sh.Clock() || seq.Clock() != sh.Clock() {
		t.Fatalf("clock/watermark: seq %d/%d, sharded %d/%d",
			seq.Clock(), seq.Watermark(), sh.Clock(), sh.Watermark())
	}

	// Structural explain output is identical: sharding changes execution,
	// not the plan.
	var e1, e2 bytes.Buffer
	if err := seq.Explain(&e1); err != nil {
		t.Fatal(err)
	}
	if err := sh.Explain(&e2); err != nil {
		t.Fatal(err)
	}
	if e1.String() != e2.String() {
		t.Fatalf("explain diverges:\nseq:\n%s\nsharded:\n%s", e1.String(), e2.String())
	}

	// Keyed lookups agree for every group key (present and absent).
	for k := int64(0); k < 9; k++ {
		r1, err1 := seq.Lookup(repro.Int(k))
		r2, err2 := sh.Lookup(repro.Int(k))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Lookup(%d) errors diverge: %v vs %v", k, err1, err2)
		}
		if fmt.Sprint(r1) != fmt.Sprint(r2) {
			t.Fatalf("Lookup(%d): seq %v, sharded %v", k, r1, r2)
		}
	}

	// Checkpoints round-trip through Open back to the same visible state,
	// preserving each engine's shard layout.
	var ck1, ck2 bytes.Buffer
	if err := seq.Checkpoint(&ck1); err != nil {
		t.Fatal(err)
	}
	if err := sh.Checkpoint(&ck2); err != nil {
		t.Fatal(err)
	}
	re1, err := repro.Open(bytes.NewReader(ck1.Bytes()), parityQuery(schema), repro.UPA)
	if err != nil {
		t.Fatalf("Open(sequential checkpoint): %v", err)
	}
	re2, err := repro.Open(bytes.NewReader(ck2.Bytes()), parityQuery(schema), repro.UPA, repro.WithShards(4))
	if err != nil {
		t.Fatalf("Open(sharded checkpoint): %v", err)
	}
	defer re2.Close()
	if fmt.Sprint(sortedRows(t, re1)) != fmt.Sprint(seqRows) {
		t.Fatal("sequential reopen diverges from original")
	}
	if fmt.Sprint(sortedRows(t, re2)) != fmt.Sprint(shRows) {
		t.Fatal("sharded reopen diverges from original")
	}
	if g, w := re1.Stats().Arrivals, seq.Stats().Arrivals; g != w {
		t.Fatalf("reopened arrivals = %d, want %d", g, w)
	}

	// A sequential checkpoint refuses to open at a different shard layout.
	_, err = repro.Open(bytes.NewReader(ck1.Bytes()), parityQuery(schema), repro.UPA, repro.WithShards(4))
	var mm *repro.MismatchError
	if !errors.As(err, &mm) || mm.Field != "shards" {
		t.Fatalf("Open at wrong shard layout: %v, want shards MismatchError", err)
	}
}

func TestOpenMismatchAndCorrupt(t *testing.T) {
	schema := linkSchema()
	eng, err := repro.Compile(parityQuery(schema), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range parityTrace()[:40] {
		if err := eng.Push(a.Stream, a.TS, a.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	var ck bytes.Buffer
	if err := eng.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}

	// Different query → typed plan mismatch.
	other := repro.Stream(0, schema, repro.TimeWindow(60)).Select("src").Distinct()
	_, err = repro.Open(bytes.NewReader(ck.Bytes()), other, repro.UPA)
	var mm *repro.MismatchError
	if !errors.As(err, &mm) || mm.Field != "plan" {
		t.Fatalf("Open(different query) = %v, want plan MismatchError", err)
	}

	// Different strategy → plan mismatch too (state layouts differ).
	_, err = repro.Open(bytes.NewReader(ck.Bytes()), parityQuery(schema), repro.NT)
	if !errors.As(err, &mm) || mm.Field != "plan" {
		t.Fatalf("Open(different strategy) = %v, want plan MismatchError", err)
	}

	// Truncated stream → ErrCheckpointCorrupt.
	_, err = repro.Open(bytes.NewReader(ck.Bytes()[:ck.Len()/2]), parityQuery(schema), repro.UPA)
	if !errors.Is(err, repro.ErrCheckpointCorrupt) {
		t.Fatalf("Open(truncated) = %v, want ErrCheckpointCorrupt", err)
	}

	// Not a checkpoint at all.
	_, err = repro.Open(strings.NewReader("not a checkpoint"), parityQuery(schema), repro.UPA)
	if !errors.Is(err, repro.ErrCheckpointCorrupt) {
		t.Fatalf("Open(garbage) = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCloseContract(t *testing.T) {
	schema := linkSchema()
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := []repro.Option{}
			if shards > 1 {
				opts = append(opts, repro.WithShards(shards))
			}
			eng, err := repro.Compile(parityQuery(schema), repro.UPA, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Push(0, 1, repro.Int(1), repro.Str("ftp"), repro.Int(5)); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := eng.Push(0, 2, repro.Int(1), repro.Str("ftp"), repro.Int(5)); !errors.Is(err, repro.ErrClosed) {
				t.Fatalf("Push after Close = %v, want ErrClosed", err)
			}
			if err := eng.PushBatch([]repro.Arrival{{Stream: 0, TS: 3}}); !errors.Is(err, repro.ErrClosed) {
				t.Fatalf("PushBatch after Close = %v, want ErrClosed", err)
			}
			if err := eng.Advance(5); !errors.Is(err, repro.ErrClosed) {
				t.Fatalf("Advance after Close = %v, want ErrClosed", err)
			}
			var buf bytes.Buffer
			if err := eng.Checkpoint(&buf); !errors.Is(err, repro.ErrClosed) {
				t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
			}
			if err := eng.Restore(bytes.NewReader(nil)); !errors.Is(err, repro.ErrClosed) {
				t.Fatalf("Restore after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestIngestErrorsFacade: the facade surfaces ingest rejections through its
// own sentinels, and a rejected arrival leaves the answer untouched.
func TestIngestErrorsFacade(t *testing.T) {
	eng, err := repro.Compile(parityQuery(linkSchema()), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Push(0, 5, repro.Int(1), repro.Str("ftp"), repro.Int(5)); err != nil {
		t.Fatal(err)
	}
	before, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		push func() error
		want error
	}{
		{"short", func() error { return eng.Push(0, 6, repro.Int(1)) }, repro.ErrSchema},
		{"kind", func() error { return eng.Push(0, 6, repro.Str("1"), repro.Str("ftp"), repro.Int(5)) }, repro.ErrSchema},
		{"stream", func() error { return eng.Push(7, 6, repro.Int(1), repro.Str("ftp"), repro.Int(5)) }, repro.ErrUnknownStream},
		{"time", func() error { return eng.Push(0, 4, repro.Int(1), repro.Str("ftp"), repro.Int(5)) }, repro.ErrTimeRegression},
	} {
		if err := tc.push(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	after, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("rejected pushes changed the answer: %v, want %v", after, before)
	}
}
