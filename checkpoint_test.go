package repro_test

// Facade checkpoint and lifecycle contracts: repro.Open rejects mismatched
// or damaged checkpoints with typed errors, and a closed engine refuses
// ingest and checkpoint calls.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func groupCountQuery(schema *repro.Schema) repro.Node {
	return repro.Stream(0, schema, repro.TimeWindow(60)).
		GroupBy([]string{"src"}, repro.CountAll(), repro.SumOf("bytes"))
}

func groupCountTrace() []repro.Arrival {
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

func TestOpenMismatchAndCorrupt(t *testing.T) {
	schema := linkSchema()
	eng, err := repro.Compile(groupCountQuery(schema), repro.UPA)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range groupCountTrace()[:40] {
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
	_, err = repro.Open(bytes.NewReader(ck.Bytes()), groupCountQuery(schema), repro.NT)
	if !errors.As(err, &mm) || mm.Field != "plan" {
		t.Fatalf("Open(different strategy) = %v, want plan MismatchError", err)
	}

	// Truncated stream → ErrCheckpointCorrupt.
	_, err = repro.Open(bytes.NewReader(ck.Bytes()[:ck.Len()/2]), groupCountQuery(schema), repro.UPA)
	if !errors.Is(err, repro.ErrCheckpointCorrupt) {
		t.Fatalf("Open(truncated) = %v, want ErrCheckpointCorrupt", err)
	}

	// Not a checkpoint at all.
	_, err = repro.Open(strings.NewReader("not a checkpoint"), groupCountQuery(schema), repro.UPA)
	if !errors.Is(err, repro.ErrCheckpointCorrupt) {
		t.Fatalf("Open(garbage) = %v, want ErrCheckpointCorrupt", err)
	}
}

// TestRestoreShardedCheckpointRejected: the four-shard checkpoints of the
// removed key-partitioned executor (Query 1 under UPA, committed as exec
// test fixtures) fail through Open and Engine.Restore with a shards
// *MismatchError, and a failed Restore leaves the engine as it was.
func TestRestoreShardedCheckpointRejected(t *testing.T) {
	schema := linkSchema()
	q1 := func() repro.Node {
		ftp := func(id int) repro.Node {
			return repro.Stream(id, schema, repro.TimeWindow(20)).Where(repro.Col("proto").EqStr("ftp"))
		}
		return ftp(0).JoinOn(ftp(1), "src")
	}
	want := repro.MismatchError{Field: "shards", Want: "1", Got: "4"}
	for _, fixture := range []string{"checkpoint_v2_q1_4shards.bin", "checkpoint_v3_q1_4shards.bin"} {
		t.Run(fixture, func(t *testing.T) {
			ck, err := os.ReadFile(filepath.Join("internal", "exec", "testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			var mm *repro.MismatchError
			if _, err := repro.Open(bytes.NewReader(ck), q1(), repro.UPA); !errors.As(err, &mm) || *mm != want {
				t.Fatalf("Open = %v, want %+v", err, want)
			}

			eng, err := repro.Compile(q1(), repro.UPA)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for ts := int64(1); ts <= 30; ts++ {
				if err := eng.Push(int(ts%2), ts, repro.Int(ts%3), repro.Str("ftp"), repro.Int(ts)); err != nil {
					t.Fatal(err)
				}
			}
			observe := func() string {
				rows, err := eng.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("clock %d stats %+v rows %v", eng.Clock(), eng.Stats(), rows)
			}
			before := observe()
			if err := eng.Restore(bytes.NewReader(ck)); !errors.As(err, &mm) || *mm != want {
				t.Fatalf("Restore = %v, want %+v", err, want)
			}
			if after := observe(); after != before {
				t.Fatalf("failed restore mutated state:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestCloseContract: Close is idempotent and every later call returns
// ErrClosed. The shards=3 leg first offers the engine the checkpoint the
// removed key-partitioned facade wrote for the same query on three shards;
// Open and Restore must both refuse it, and the refusing engine must then
// close like any other.
func TestCloseContract(t *testing.T) {
	schema := linkSchema()
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := repro.Compile(groupCountQuery(schema), repro.UPA)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Push(0, 1, repro.Int(1), repro.Str("ftp"), repro.Int(5)); err != nil {
				t.Fatal(err)
			}
			if shards > 1 {
				ck, err := os.ReadFile(filepath.Join("internal", "exec", "testdata", "checkpoint_v3_groupcount_3shards.bin"))
				if err != nil {
					t.Fatal(err)
				}
				want := repro.MismatchError{Field: "shards", Want: "1", Got: "3"}
				var mm *repro.MismatchError
				if _, err := repro.Open(bytes.NewReader(ck), groupCountQuery(schema), repro.UPA); !errors.As(err, &mm) || *mm != want {
					t.Fatalf("Open = %v, want %+v", err, want)
				}
				if err := eng.Restore(bytes.NewReader(ck)); !errors.As(err, &mm) || *mm != want {
					t.Fatalf("Restore = %v, want %+v", err, want)
				}
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
	eng, err := repro.Compile(groupCountQuery(linkSchema()), repro.UPA)
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
