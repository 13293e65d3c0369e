package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/tuple"
	"repro/internal/window"
)

// selPlan is a selection over a time window — the shape the sharing tests
// instantiate repeatedly (Q1 with a predicate variant).
func selPlan(win int64, proto string) *plan.Node {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: win}, linkSchema())
	return plan.NewSelect(src, operator.ColConst{Col: 1, Op: operator.EQ, Val: tuple.String_(proto)})
}

// joinPlan joins two streams' windows; top selects on the probe side's
// bytes column, so two instances with different cutoffs share the join.
func joinPlan(cutoff int64) *plan.Node {
	a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 40}, linkSchema())
	b := plan.NewSource(1, window.Spec{Type: window.TimeBased, Size: 60}, linkSchema())
	j := plan.NewJoin(a, b, []int{0}, []int{0})
	return plan.NewSelect(j, operator.ColConst{Col: 2, Op: operator.GT, Val: tuple.Int(cutoff)})
}

// pushScript drives a deterministic two-stream workload through push (an
// engine Push or a recorder).
func pushScript(n int, push func(stream int, ts int64, vals ...tuple.Value)) {
	for i := 0; i < n; i++ {
		ts := int64(i + 1)
		push(i%2, ts, tuple.Int(int64(i%5)), tuple.String_(protos[i%len(protos)]), tuple.Int(int64(i*7%100)))
	}
}

func snapshotOf(t *testing.T, e *Engine) []tuple.Tuple {
	t.Helper()
	rows, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// renderRows renders a snapshot order-sensitively, so equality means the
// views are byte-identical, not just bag-equal.
func renderRows(rows []tuple.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&b, r.String())
	}
	return b.String()
}

func TestRegistrySharesIdenticalPlans(t *testing.T) {
	e := NewMulti(Config{})
	q1, err := e.RegisterQuery(QuerySpec{Name: "q1", Phys: buildPhys(t, selPlan(50, "http"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterQuery(QuerySpec{Name: "q2", Phys: buildPhys(t, selPlan(50, "http"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.sources) != 1 || len(e.order) != 1 {
		t.Fatalf("identical plans did not dedupe: %d sources, %d operators", len(e.sources), len(e.order))
	}
	s := e.Sharing()
	if s.Queries != 2 || s.LiveNodes != 1 || s.PlanNodes != 2 || s.SharedNodes != 1 || s.SharedSources != 1 {
		t.Fatalf("sharing stats: %+v", s)
	}
	if r := s.Ratio(); r != 2 {
		t.Fatalf("sharing ratio = %v, want 2", r)
	}

	std := buildEngine(t, selPlan(50, "http"), plan.UPA, Config{})
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		if err := std.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	want := renderRows(snapshotOf(t, std))
	for _, h := range []*QueryHandle{q1, q2} {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(rows); got != want {
			t.Fatalf("%s view != standalone\ngot:\n%swant:\n%s", h.Name(), got, want)
		}
	}
}

// groupByPlan counts and sums bytes per protocol over one 50-tick window.
func groupByPlan() *plan.Node {
	src := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 50}, linkSchema())
	return plan.NewGroupBy(src, []int{1},
		operator.AggSpec{Kind: operator.Count},
		operator.AggSpec{Kind: operator.Sum, Col: 2})
}

// TestRegistrySharedGroupBy registers two identical group-by queries —
// protocol grouping with count and summed bytes — on one registry and feeds
// it batched runs, so the single deduplicated physical group-by executes on
// behalf of both owners. Both handles must stay byte-identical to a
// standalone engine, with no update-pattern violations.
func TestRegistrySharedGroupBy(t *testing.T) {
	cfg := Config{LazyInterval: 7, EagerInterval: 1}
	e := NewMulti(cfg)
	q1, err := e.RegisterQuery(QuerySpec{Name: "gb1", Phys: buildPhys(t, groupByPlan(), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterQuery(QuerySpec{Name: "gb2", Phys: buildPhys(t, groupByPlan(), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.order) != 1 || len(e.sources) != 1 {
		t.Fatalf("identical group-by plans did not dedupe: %d sources, %d operators", len(e.sources), len(e.order))
	}
	std := buildEngine(t, groupByPlan(), plan.UPA, cfg)

	trace := runTrace(1, 256)
	batchFeed(t, e, trace)
	batchFeed(t, std, trace)
	if v := e.Violations(); v != 0 {
		t.Fatalf("shared group-by raised %d update-pattern violations", v)
	}
	want := renderRows(snapshotOf(t, std))
	for _, h := range []*QueryHandle{q1, q2} {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(rows); got != want {
			t.Fatalf("%s view != standalone engine\ngot:\n%swant:\n%s", h.Name(), got, want)
		}
	}
}

func TestRegistrySharedPrefixPrivateTop(t *testing.T) {
	e := NewMulti(Config{})
	var handles []*QueryHandle
	var twins []*Engine
	cutoffs := []int64{10, 40, 70}
	for i, c := range cutoffs {
		h, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("v%d", i), Phys: buildPhys(t, joinPlan(c), plan.UPA, plan.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		twins = append(twins, buildEngine(t, joinPlan(c), plan.UPA, Config{}))
	}
	// Both windows and the join dedupe; only the top selections are private.
	if len(e.sources) != 2 {
		t.Fatalf("windows not shared: %d sources", len(e.sources))
	}
	if len(e.order) != 1+len(cutoffs) {
		t.Fatalf("join not shared: %d operators, want %d", len(e.order), 1+len(cutoffs))
	}

	pushScript(120, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		for _, tw := range twins {
			if err := tw.Push(st, ts, vals...); err != nil {
				t.Fatal(err)
			}
		}
	})
	for i, h := range handles {
		rows, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := renderRows(snapshotOf(t, twins[i]))
		if got := renderRows(rows); got != want {
			t.Fatalf("%s view != standalone\ngot:\n%swant:\n%s", h.Name(), got, want)
		}
	}
}

func TestRegistryMixedStrategiesDontShareSources(t *testing.T) {
	e := NewMulti(Config{})
	hU, err := e.RegisterQuery(QuerySpec{Name: "upa", Phys: buildPhys(t, selPlan(30, "ftp"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	hN, err := e.RegisterQuery(QuerySpec{Name: "nt", Phys: buildPhys(t, selPlan(30, "ftp"), plan.NT, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	// The NT window is materialized, the UPA one is not: the descriptor
	// differs, so nothing dedupes and each query keeps its expiry policy.
	if len(e.sources) != 2 || len(e.order) != 2 {
		t.Fatalf("cross-strategy plans shared: %d sources, %d operators", len(e.sources), len(e.order))
	}
	stdU := buildEngine(t, selPlan(30, "ftp"), plan.UPA, Config{})
	stdN := buildEngine(t, selPlan(30, "ftp"), plan.NT, Config{})
	pushScript(60, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		for _, eng := range []*Engine{e, stdU, stdN} {
			if err := eng.Push(st, ts, vals...); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		h   *QueryHandle
		std *Engine
	}{{hU, stdU}, {hN, stdN}} {
		rows, err := c.h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Compare as bags: Snapshot order is contractually unspecified, and
		// NT view buffers can hold the same rows at different ring offsets.
		got, want := reference.RowsOf(rows), reference.RowsOf(snapshotOf(t, c.std))
		if !reference.SameBag(got, want) {
			t.Fatalf("%s view != standalone\ngot:\n%swant:\n%s",
				c.h.Name(), reference.Render(got), reference.Render(want))
		}
	}
}

func TestRegistryMultiWindowStreamStaysPrivate(t *testing.T) {
	// A self-join windows stream 0 twice: per the ordering rule neither
	// window may be shared, so a second identical query duplicates them.
	selfJoin := func() *plan.Node {
		a := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 25}, linkSchema())
		b := plan.NewSource(0, window.Spec{Type: window.TimeBased, Size: 25}, linkSchema())
		return plan.NewJoin(a, b, []int{0}, []int{0})
	}
	e := NewMulti(Config{})
	if _, err := e.RegisterQuery(QuerySpec{Phys: buildPhys(t, selfJoin(), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(QuerySpec{Phys: buildPhys(t, selfJoin(), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if len(e.sources) != 4 {
		t.Fatalf("multi-window stream sources were shared: %d sources, want 4", len(e.sources))
	}
	if s := e.Sharing(); s.SharedSources != 0 || s.SharedNodes != 0 {
		t.Fatalf("sharing stats report sharing: %+v", s)
	}
}

func TestRegistryDuplicateNameRejected(t *testing.T) {
	e := NewMulti(Config{})
	if _, err := e.RegisterQuery(QuerySpec{Name: "x", Phys: buildPhys(t, selPlan(10, "http"), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(QuerySpec{Name: "x", Phys: buildPhys(t, selPlan(20, "ftp"), plan.UPA, plan.Options{})}); err == nil {
		t.Fatal("duplicate query name accepted")
	}
}

// registryEmpty asserts every canonical structure drained to zero.
func registryEmpty(t *testing.T, e *Engine) {
	t.Helper()
	if n := len(e.queries); n != 0 {
		t.Fatalf("%d queries left", n)
	}
	checks := map[string]int{
		"order":     len(e.order),
		"sources":   len(e.sources),
		"tables":    len(e.tables),
		"ops":       len(e.ops),
		"nodeByKey": len(e.nodeByKey),
		"srcByKey":  len(e.srcByKey),
		"nodeKey":   len(e.nodeKey),
		"srcKey":    len(e.srcKey),
		"nodeRefs":  len(e.nodeRefs),
		"srcRefs":   len(e.srcRefs),
		"canonID":   len(e.canonID),
		"eager":     len(e.eager),
	}
	for name, n := range checks {
		if n != 0 {
			t.Errorf("leaked %s: %d entries", name, n)
		}
	}
	if n := e.StateTuples(); n != 0 {
		t.Errorf("leaked state: %d tuples", n)
	}
}

func TestRegistryUnregisterRetiresOrphans(t *testing.T) {
	e := NewMulti(Config{})
	h1, err := e.RegisterQuery(QuerySpec{Name: "a", Phys: buildPhys(t, joinPlan(10), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.RegisterQuery(QuerySpec{Name: "b", Phys: buildPhys(t, joinPlan(90), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	twin := buildEngine(t, joinPlan(90), plan.UPA, Config{})
	pushScript(80, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		if err := twin.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})

	freed, err := e.UnregisterQuery(h1)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Error("unregistering a live query freed no state")
	}
	// The shared join and both windows survive for b; only a's private
	// selection retired.
	if len(e.sources) != 2 || len(e.order) != 2 {
		t.Fatalf("after unregister(a): %d sources, %d operators", len(e.sources), len(e.order))
	}
	if _, err := e.UnregisterQuery(h1); err == nil {
		t.Fatal("double unregister accepted")
	}

	// b keeps answering, still byte-identical to its standalone twin.
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		ts += 80
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
		if err := twin.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	rows, err := h2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(rows), renderRows(snapshotOf(t, twin)); got != want {
		t.Fatalf("survivor view != standalone\ngot:\n%swant:\n%s", got, want)
	}

	if _, err := e.UnregisterQuery(h2); err != nil {
		t.Fatal(err)
	}
	registryEmpty(t, e)
}

func TestRegistryChurn(t *testing.T) {
	// Random register/push/unregister churn: the property under test is the
	// canonical bookkeeping — refcounts drain to zero, retired nodes leave no
	// state, edges never dangle.
	rng := rand.New(rand.NewSource(7))
	e := NewMulti(Config{})
	shapes := []func() *plan.Node{
		func() *plan.Node { return selPlan(30, "http") },
		func() *plan.Node { return selPlan(30, "ftp") },
		func() *plan.Node { return joinPlan(50) },
		func() *plan.Node { return selPlan(70, "smtp") },
	}
	var live []*QueryHandle
	ts := int64(0)
	for step := 0; step < 200; step++ {
		switch {
		case len(live) == 0 || rng.Intn(3) == 0:
			shape := shapes[rng.Intn(len(shapes))]()
			strat := plan.UPA
			if rng.Intn(4) == 0 {
				strat = plan.NT
			}
			h, err := e.RegisterQuery(QuerySpec{Phys: buildPhys(t, shape, strat, plan.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, h)
		case rng.Intn(2) == 0 && len(live) > 1:
			i := rng.Intn(len(live))
			if _, err := e.UnregisterQuery(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			streams := map[int]bool{}
			for _, id := range e.Streams() {
				streams[id] = true
			}
			for k := 0; k < 5; k++ {
				ts++
				if !streams[int(ts)%2] {
					continue // no live query reads this stream right now
				}
				err := e.Push(int(ts)%2, ts, tuple.Int(ts%5), tuple.String_(protos[int(ts)%len(protos)]), tuple.Int(ts*3%90))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// Invariants: one stats cell per live operator, refcounts sum to the
		// total mapped plan nodes, every consumer edge targets a live node.
		if len(e.ops) != len(e.order) {
			t.Fatalf("step %d: %d stats cells, %d operators", step, len(e.ops), len(e.order))
		}
		wantRefs := 0
		for _, q := range e.queries {
			wantRefs += len(q.nodeMap)
		}
		gotRefs := 0
		for _, rc := range e.nodeRefs {
			gotRefs += rc.Count()
		}
		if gotRefs != wantRefs {
			t.Fatalf("step %d: node refcounts sum %d, want %d", step, gotRefs, wantRefs)
		}
		liveNode := map[*plan.PNode]bool{}
		for _, pn := range e.order {
			liveNode[pn] = true
		}
		for _, src := range e.sources {
			for _, ed := range src.Scratch.(*srcCell).outs {
				if !liveNode[ed.node] {
					t.Fatalf("step %d: source edge targets retired node", step)
				}
			}
		}
		for _, pn := range e.order {
			for _, ed := range e.ops[pn].outs {
				if !liveNode[ed.node] {
					t.Fatalf("step %d: operator edge targets retired node", step)
				}
			}
		}
	}
	for _, h := range live {
		if _, err := e.UnregisterQuery(h); err != nil {
			t.Fatal(err)
		}
	}
	registryEmpty(t, e)
}

func TestRegistryCheckpointRestore(t *testing.T) {
	build := func() (*Engine, []*QueryHandle) {
		e := NewMulti(Config{})
		var hs []*QueryHandle
		for i, c := range []int64{20, 60} {
			h, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("j%d", i), Phys: buildPhys(t, joinPlan(c), plan.UPA, plan.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		return e, hs
	}
	e1, hs1 := build()
	pushScript(90, func(st int, ts int64, vals ...tuple.Value) {
		if err := e1.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	var buf bytes.Buffer
	if err := e1.CheckpointRegistry(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e1.Checkpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("single-engine checkpoint accepted on a 2-query registry")
	}

	e2, hs2 := build()
	if err := e2.RestoreRegistry(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Both engines continue identically.
	more := func(e *Engine) {
		pushScript(30, func(st int, ts int64, vals ...tuple.Value) {
			if err := e.Push(st, ts+90, vals...); err != nil {
				t.Fatal(err)
			}
		})
	}
	more(e1)
	more(e2)
	for i := range hs1 {
		r1, err := hs1[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := hs2[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderRows(r2), renderRows(r1); got != want {
			t.Fatalf("restored %s diverged\ngot:\n%swant:\n%s", hs1[i].Name(), got, want)
		}
	}

	// A third engine with a different registration sequence must refuse.
	e3 := NewMulti(Config{})
	if _, err := e3.RegisterQuery(QuerySpec{Name: "j0", Phys: buildPhys(t, joinPlan(20), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	if err := e3.RestoreRegistry(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
}

func TestQueryHandleCheckpointIntoStandalone(t *testing.T) {
	e := NewMulti(Config{})
	var hs []*QueryHandle
	for i, c := range []int64{15, 55} {
		h, err := e.RegisterQuery(QuerySpec{Name: fmt.Sprintf("j%d", i), Phys: buildPhys(t, joinPlan(c), plan.UPA, plan.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	pushScript(70, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	// Extract both queries at the same point, then run one shared
	// continuation on the registry and the same continuation on each
	// extracted standalone engine.
	var bufs [2]bytes.Buffer
	for i := range hs {
		if err := hs[i].Checkpoint(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	pushScript(30, func(st int, ts int64, vals ...tuple.Value) {
		if err := e.Push(st, ts+70, vals...); err != nil {
			t.Fatal(err)
		}
	})
	for i, c := range []int64{15, 55} {
		std := buildEngine(t, joinPlan(c), plan.UPA, Config{})
		if err := std.Restore(bytes.NewReader(bufs[i].Bytes())); err != nil {
			t.Fatalf("standalone restore of extracted query %d: %v", i, err)
		}
		pushScript(30, func(st int, ts int64, vals ...tuple.Value) {
			if err := std.Push(st, ts+70, vals...); err != nil {
				t.Fatal(err)
			}
		})
		rows, err := hs[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := renderRows(snapshotOf(t, std))
		if got := renderRows(rows); got != want {
			t.Fatalf("extracted query %d diverged\ngot:\n%swant:\n%s", i, got, want)
		}
	}
}

func TestRegistryExplainShareAnnotations(t *testing.T) {
	e := NewMulti(Config{})
	h1, err := e.RegisterQuery(QuerySpec{Name: "alpha", Phys: buildPhys(t, joinPlan(10), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(QuerySpec{Name: "beta", Phys: buildPhys(t, joinPlan(99), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	tr := h1.Explain(false)
	sharedNodes, privateNodes := 0, 0
	tr.Walk(func(n *plan.ExplainNode) {
		if n.PNode != nil && n.ShareKey == "" {
			t.Errorf("operator %s has no share key", n.Name)
		}
		if len(n.SharedWith) > 0 {
			sharedNodes++
			for _, name := range n.SharedWith {
				if name != "beta" {
					t.Errorf("unexpected sharer %q on %s", name, n.Name)
				}
			}
		} else if n.PNode != nil {
			privateNodes++
		}
	})
	if sharedNodes == 0 {
		t.Fatal("no node annotated as shared")
	}
	if privateNodes == 0 {
		t.Fatal("the private top selection reported as shared")
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shared with beta") {
		t.Fatalf("text rendering lacks share annotation:\n%s", buf.String())
	}
}

func TestRegistryNamedQueryMetrics(t *testing.T) {
	e := NewMulti(Config{})
	// Stream 0 carries only even i of pushScript, whose protos cycle
	// ftp/telnet/smtp/http — so it sees just ftp and smtp.
	h1, err := e.RegisterQuery(QuerySpec{Name: "hot", Phys: buildPhys(t, selPlan(50, "ftp"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.RegisterQuery(QuerySpec{Name: "cold", Phys: buildPhys(t, selPlan(50, "smtp"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	emits := map[string]int{}
	h1.SetOnEmit(func(tp tuple.Tuple) {
		if !tp.Neg {
			emits["hot"]++
		}
	})
	h2.SetOnEmit(func(tp tuple.Tuple) {
		if !tp.Neg {
			emits["cold"]++
		}
	})
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	for name, q := range map[string]*queryUnit{"hot": h1.q, "cold": h2.q} {
		if q.emitted == nil {
			t.Fatalf("%s: no per-query counter", name)
		}
		if got := int(q.emitted.Value()); got != emits[name] {
			t.Errorf("%s: per-query emitted = %d, OnEmit saw %d", name, got, emits[name])
		}
	}
	if emits["hot"] == 0 || emits["cold"] == 0 {
		t.Fatalf("workload did not exercise both queries: %v", emits)
	}
}

func TestRegistryLateRegistrationStartsCold(t *testing.T) {
	// A query registered after data has flowed starts with an empty view;
	// with a private plan (unique window size) it then tracks a standalone
	// twin exactly.
	e := NewMulti(Config{})
	if _, err := e.RegisterQuery(QuerySpec{Name: "early", Phys: buildPhys(t, selPlan(30, "http"), plan.UPA, plan.Options{})}); err != nil {
		t.Fatal(err)
	}
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts, vals...); err != nil {
			t.Fatal(err)
		}
	})
	late, err := e.RegisterQuery(QuerySpec{Name: "late", Phys: buildPhys(t, selPlan(77, "http"), plan.UPA, plan.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if n := late.View().Len(); n != 0 {
		t.Fatalf("late view starts with %d rows", n)
	}
	twin := buildEngine(t, selPlan(77, "http"), plan.UPA, Config{})
	pushScript(40, func(st int, ts int64, vals ...tuple.Value) {
		if st != 0 {
			return
		}
		if err := e.Push(st, ts+40, vals...); err != nil {
			t.Fatal(err)
		}
		if err := twin.Push(st, ts+40, vals...); err != nil {
			t.Fatal(err)
		}
	})
	rows, err := late.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := reference.RowsOf(rows)
	want := reference.RowsOf(snapshotOf(t, twin))
	if !reference.SameBag(got, want) {
		t.Fatalf("late query diverged from twin\ngot:\n%s\nwant:\n%s",
			reference.Render(got), reference.Render(want))
	}
}
