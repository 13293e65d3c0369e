package exec

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

func buildEngine(t *testing.T, root *plan.Node, s plan.Strategy, cfg Config) *Engine {
	t.Helper()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(phys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// buildPhys annotates and builds a fresh physical plan.
func buildPhys(t *testing.T, root *plan.Node, s plan.Strategy, opts plan.Options) *plan.Physical {
	t.Helper()
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return phys
}

func simpleSelect(windowSize int64) *plan.Node {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: windowSize}, linkSchema())
	return plan.NewSelect(src, operator.True{})
}

func TestEngineTimestampRegressionRejected(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.UPA, Config{})
	if err := eng.Push(0, 10, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(0, 5, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err == nil {
		t.Error("timestamp regression accepted")
	}
	if err := eng.Advance(3); err == nil {
		t.Error("time regression accepted")
	}
	if eng.Clock() != 10 {
		t.Errorf("clock = %d", eng.Clock())
	}
}

func TestEngineUnknownStream(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.UPA, Config{})
	if err := eng.Push(9, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err == nil {
		t.Error("unknown stream accepted")
	}
}

func TestEngineSyncBeforeAnyEvent(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.UPA, Config{})
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if rows, err := eng.Snapshot(); err != nil || len(rows) != 0 {
		t.Errorf("empty engine snapshot: %v %v", rows, err)
	}
}

func TestEngineLazyIntervalDelaysTrim(t *testing.T) {
	// With a large lazy interval, view expiration waits for the next lazy
	// tick; Sync forces it.
	eng := buildEngine(t, simpleSelect(10), plan.UPA, Config{LazyInterval: 1000})
	eng.Push(0, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1))
	eng.Advance(50) // tuple expired at 11, but lazy tick hasn't come
	if eng.View().Len() != 1 {
		t.Fatalf("lazy view trimmed early: %d", eng.View().Len())
	}
	if n, err := eng.ResultCount(); err != nil || n != 0 {
		t.Fatalf("Sync must force expiry: %d %v", n, err)
	}
}

func TestEngineTableUpdateValidation(t *testing.T) {
	tbl := relation.NewNRR("t", tuple.MustSchema(tuple.Column{Name: "sym", Kind: tuple.KindInt}))
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	root := plan.NewNRRJoin(src, tbl, []int{0}, []int{0})
	eng := buildEngine(t, root, plan.UPA, Config{})
	if err := eng.Push(0, 10, tuple.Int(1), tuple.String_("a"), tuple.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Update in the past is rejected.
	if err := eng.ApplyTableUpdate(tbl, relation.Update{Kind: relation.Insert, TS: 5, Row: []tuple.Value{tuple.Int(1)}}); err == nil {
		t.Error("past table update accepted")
	}
	// Invalid update (delete of absent row) surfaces the table's error.
	if err := eng.ApplyTableUpdate(tbl, relation.Update{Kind: relation.Delete, TS: 11, Row: []tuple.Value{tuple.Int(9)}}); err == nil {
		t.Error("bad delete accepted")
	}
}

func TestEngineStatsAndStateTuples(t *testing.T) {
	eng := buildEngine(t, simpleSelect(50), plan.NT, Config{})
	for ts := int64(0); ts < 100; ts++ {
		if err := eng.Push(0, ts, tuple.Int(ts%5), tuple.String_("a"), tuple.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Arrivals != 100 {
		t.Errorf("arrivals = %d", st.Arrivals)
	}
	if st.WindowNegatives == 0 {
		t.Error("NT should have generated window negatives")
	}
	if st.MaxStateTuples == 0 {
		t.Error("state never sampled")
	}
	if eng.StateTuples() == 0 {
		t.Error("state tuples should include the window and view")
	}
	if eng.Touched() == 0 {
		t.Error("touched should be counted")
	}
}

func TestEngineOnEmitObservesRetractions(t *testing.T) {
	var pos, neg int
	src0 := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	src1 := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	root := plan.NewNegate(src0, src1, []int{0}, []int{0})
	if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Build(root, plan.UPA, plan.Options{STR: plan.STRPartitioned})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(phys, Config{OnEmit: func(tp tuple.Tuple) {
		if tp.Neg {
			neg++
		} else {
			pos++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Push(0, 1, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	eng.Push(1, 2, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	if pos != 1 || neg != 1 {
		t.Errorf("OnEmit saw pos=%d neg=%d", pos, neg)
	}
	st := eng.Stats()
	if st.Emitted != 1 || st.Retracted != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEngineEagerIntervalBatchesExpiry(t *testing.T) {
	// Eager interval larger than one time unit: expiration emissions wait
	// for the next eager tick (or a Sync).
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
	root := plan.NewGroupBy(src, []int{1}, operator.AggSpec{Kind: operator.Count})
	eng := buildEngine(t, root, plan.UPA, Config{EagerInterval: 100, LazyInterval: 100})
	eng.Push(0, 1, tuple.Int(1), tuple.String_("a"), tuple.Int(1))
	eng.Advance(50)
	// With the huge eager interval nothing ticked yet; Sync settles it.
	if n, err := eng.ResultCount(); err != nil || n != 0 {
		t.Fatalf("after sync: %d %v", n, err)
	}
}

// TestEngineExpirationsWithoutArrivals replays Section 2.3's motivating
// scenario: a materialized sliding-window aggregate must change when tuples
// expire even though nothing new arrives.
func TestEngineExpirationsWithoutArrivals(t *testing.T) {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema())
	root := plan.NewGroupBy(src, []int{1}, operator.AggSpec{Kind: operator.Count})
	for _, s := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
		eng := buildEngine(t, root.Clone(), s, Config{})
		eng.Push(0, 1, tuple.Int(1), tuple.String_("ftp"), tuple.Int(1))
		eng.Push(0, 5, tuple.Int(2), tuple.String_("ftp"), tuple.Int(1))
		if n, _ := eng.ResultCount(); n != 1 {
			t.Fatalf("%v: one group expected", s)
		}
		rows, _ := eng.Snapshot()
		if rows[0].Vals[1] != tuple.Int(2) {
			t.Fatalf("%v: count = %v", s, rows[0].Vals[1])
		}
		// Quiet period: the first tuple expires at 11.
		if err := eng.Advance(11); err != nil {
			t.Fatal(err)
		}
		rows, _ = eng.Snapshot()
		if len(rows) != 1 || rows[0].Vals[1] != tuple.Int(1) {
			t.Fatalf("%v: after quiet expiry rows = %v", s, rows)
		}
		// Group vanishes entirely at 15.
		if err := eng.Advance(20); err != nil {
			t.Fatal(err)
		}
		if n, _ := eng.ResultCount(); n != 0 {
			t.Fatalf("%v: group should vanish", s)
		}
	}
}

func TestProfile(t *testing.T) {
	src0 := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	src1 := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	root := plan.NewSelect(plan.NewNegate(src0, src1, []int{0}, []int{0}), operator.True{})
	eng := buildEngine(t, root, plan.UPA, Config{})
	eng.Push(0, 1, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	eng.Push(1, 2, tuple.Int(7), tuple.String_("a"), tuple.Int(1))
	profs := eng.Profile()
	if len(profs) != 2 || profs[0].Class != "select" || profs[1].Class != "negate" {
		t.Fatalf("profiles: %+v", profs)
	}
	if profs[1].Emitted != 1 || profs[1].Retracted != 1 {
		t.Errorf("negate profile: %+v", profs[1])
	}
	if profs[1].Pattern != "STR" || profs[1].Depth != 1 {
		t.Errorf("negate annotation: %+v", profs[1])
	}
	var buf bytes.Buffer
	if err := eng.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"operator", "negate", "STR", "retracted"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("profile output missing %q:\n%s", want, buf.String())
		}
	}
	// Bare window plan.
	bare := buildEngine(t, plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 10}, linkSchema()), plan.UPA, Config{})
	buf.Reset()
	if err := bare.WriteProfile(&buf); err != nil || !strings.Contains(buf.String(), "bare window") {
		t.Errorf("bare profile: %q %v", buf.String(), err)
	}
}
