package operator

import (
	"testing"

	"repro/internal/statebuf"
	"repro/internal/tuple"
)

var stateTestSchema = tuple.MustSchema(
	tuple.Column{Name: "id", Kind: tuple.KindInt},
	tuple.Column{Name: "proto", Kind: tuple.KindString},
	tuple.Column{Name: "len", Kind: tuple.KindFloat},
)

func stateTestDistinct(t *testing.T, inputKind statebuf.Kind, timeExpiry bool) *Distinct {
	t.Helper()
	return NewDistinct(DistinctConfig{
		Schema:     stateTestSchema,
		InputBuf:   statebuf.Config{Kind: inputKind},
		RepIdx:     statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 256, Partitions: 8},
		TimeExpiry: timeExpiry,
	})
}

func stateTestNegate(t *testing.T, noTimeExpiry bool) *Negate {
	t.Helper()
	n, err := NewNegate(NegateConfig{
		Left: stateTestSchema, Right: stateTestSchema,
		LeftCols: []int{1}, RightCols: []int{1}, // match on proto
		Horizon: 256, Partitions: 8,
		NoTimeExpiry: noTimeExpiry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStatefulStateSizeFootprint pins the StateSize contract shared by the
// three stateful-tail operators: every retained structure counts — stored
// tuples, representatives, and expiration-calendar entries alike — and
// structures a strategy never reads stay empty. Before this accounting,
// Distinct's calendar entries were invisible to the state-size sampler and
// the NT variants leaked calendar entries that Advance would never drain.
func TestStatefulStateSizeFootprint(t *testing.T) {
	row := func(ts, exp int64, id int64, proto string) tuple.Tuple {
		return tuple.Tuple{TS: ts, Exp: exp, Vals: []tuple.Value{
			tuple.Int(id), tuple.String_(proto), tuple.Float(1),
		}}
	}

	t.Run("distinct-calendar", func(t *testing.T) {
		d := stateTestDistinct(t, statebuf.KindHash, true)
		mustProcess(t, d, 0, row(1, 100, 1, "ftp"), 1)
		mustProcess(t, d, 0, row(2, 120, 1, "ftp"), 2) // duplicate
		// 2 input tuples + 1 rep + 1 calendar entry tracking the rep.
		if got := d.StateSize(); got != 4 {
			t.Errorf("StateSize = %d, want 4 (input 2 + rep 1 + calendar 1)", got)
		}
		mustAdvance(t, d, 120)
		if got := d.StateSize(); got != 0 {
			t.Errorf("drained StateSize = %d", got)
		}
	})

	t.Run("distinct-nt-calendar-stays-empty", func(t *testing.T) {
		d := stateTestDistinct(t, statebuf.KindHash, false)
		a := row(1, 100, 1, "ftp")
		mustProcess(t, d, 0, a, 1)
		// Without time expiry the calendar is never consulted, so it must not
		// accumulate: 1 input + 1 rep only.
		if got := d.StateSize(); got != 2 {
			t.Errorf("StateSize = %d, want 2 (input 1 + rep 1, no calendar)", got)
		}
		mustProcess(t, d, 0, a.Negative(2), 2)
		if got := d.StateSize(); got != 0 {
			t.Errorf("retraction must drain all state: StateSize = %d", got)
		}
	})

	t.Run("distinct-delta", func(t *testing.T) {
		d := NewDistinctDelta(stateTestSchema, 256, 8)
		mustProcess(t, d, 0, row(1, 100, 1, "ftp"), 1)
		mustProcess(t, d, 0, row(2, 150, 1, "ftp"), 2) // longer-lived aux
		// 1 rep + 1 aux + 1 calendar entry.
		if got := d.StateSize(); got != 3 {
			t.Errorf("StateSize = %d, want 3 (rep 1 + aux 1 + calendar 1)", got)
		}
	})

	t.Run("negate-nt-calendars-stay-empty", func(t *testing.T) {
		n := stateTestNegate(t, true)
		a := row(1, 100, 1, "ftp")
		b := row(2, 110, 2, "ftp")
		mustProcess(t, n, 0, a, 1)
		mustProcess(t, n, 1, b, 2)
		// W1 holds a, W2 holds b; no calendar entries under NT.
		if got := n.StateSize(); got != 2 {
			t.Errorf("StateSize = %d, want 2 (w1 1 + w2 1, no calendars)", got)
		}
		mustProcess(t, n, 0, a.Negative(3), 3)
		mustProcess(t, n, 1, b.Negative(4), 4)
		if got := n.StateSize(); got != 0 {
			t.Errorf("retractions must drain all state: StateSize = %d", got)
		}
	})
}
