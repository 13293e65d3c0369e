package exec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/tuple"
)

// TestMalformedBatchRejectedWhole feeds Query 1 inputs that ingest must
// reject — a short tuple, a wrong-kind value, an unknown stream behind two
// valid arrivals, a timestamp regression inside a batch and one before the
// clock — and requires the typed error, naming the offending batch index,
// with the clock, the counters and the view exactly as they were.
func TestMalformedBatchRejectedWhole(t *testing.T) {
	ok := func(src int64) []tuple.Value {
		return []tuple.Value{tuple.Int(src), tuple.String_("ftp"), tuple.Int(1)}
	}
	cases := []struct {
		name  string
		batch func(clock int64) []Arrival
		want  error
		index string
	}{
		{"short-tuple", func(c int64) []Arrival {
			return []Arrival{{Stream: 0, TS: c + 1, Vals: []tuple.Value{tuple.Int(1)}}}
		}, ErrSchema, "batch[0]"},
		{"wrong-kind", func(c int64) []Arrival {
			return []Arrival{{Stream: 1, TS: c + 1, Vals: []tuple.Value{tuple.String_("1"), tuple.String_("ftp"), tuple.Int(1)}}}
		}, ErrSchema, "batch[0]"},
		{"unknown-stream-at-2", func(c int64) []Arrival {
			return []Arrival{
				{Stream: 0, TS: c + 1, Vals: ok(1)},
				{Stream: 1, TS: c + 2, Vals: ok(1)},
				{Stream: 9, TS: c + 3, Vals: ok(1)},
			}
		}, ErrUnknownStream, "batch[2]"},
		{"regression-in-batch", func(c int64) []Arrival {
			return []Arrival{
				{Stream: 0, TS: c + 5, Vals: ok(2)},
				{Stream: 1, TS: c + 4, Vals: ok(2)},
			}
		}, ErrTimeRegression, "batch[1]"},
		{"regression-before-clock", func(c int64) []Arrival {
			return []Arrival{{Stream: 0, TS: c - 1, Vals: ok(3)}}
		}, ErrTimeRegression, "batch[0]"},
	}
	q := ckptQueries()[0] // Q1-join-of-selects
	for _, tc := range cases {
		for _, viaPush := range []bool{false, true} {
			name := tc.name + "/PushBatch"
			if viaPush {
				name = tc.name + "/Push"
			}
			t.Run(name, func(t *testing.T) {
				eng := buildExecutor(t, q, plan.UPA, 1).(*Engine)
				feed(t, eng, ckptTrace(q.streams)[:100])
				clock, stats := eng.Clock(), eng.Stats()
				view := renderRows(snapshotOf(t, eng))

				var err error
				batch := tc.batch(clock)
				if viaPush {
					for _, a := range batch {
						if err = eng.Push(a.Stream, a.TS, a.Vals...); err != nil {
							break
						}
					}
				} else {
					err = eng.PushBatch(batch)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				if !viaPush && !strings.Contains(err.Error(), tc.index) {
					t.Errorf("err = %q does not name %s", err, tc.index)
				}
				if viaPush && len(batch) > 1 {
					return // the valid arrivals before the bad one were applied
				}
				if got := eng.Clock(); got != clock {
					t.Errorf("clock moved: %d, want %d", got, clock)
				}
				if got := eng.Stats(); got != stats {
					t.Errorf("stats moved: %+v, want %+v", got, stats)
				}
				if got := renderRows(snapshotOf(t, eng)); got != view {
					t.Errorf("view changed\ngot:\n%swant:\n%s", got, view)
				}
			})
		}
	}
}
