package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// TestRegistryCISmoke is the CI multi-query smoke: register 8 queries on one
// registry, push traffic, unregister half, push more, and require (a) every
// survivor's view to stay bag-equal to a standalone twin fed the same
// arrivals, (b) unregistration to free state, and (c) the /debug/plan page
// to carry "shared with" annotations.
func TestRegistryCISmoke(t *testing.T) {
	sch := connSchema()
	w := func(link int) repro.Node { return repro.Stream(link, sch, repro.TimeWindow(30)) }
	sel := func(link int, proto string) repro.Node {
		return w(link).Where(repro.Col("proto").EqStr(proto))
	}
	join := func(proto string) func() repro.Node {
		return func() repro.Node { return sel(0, proto).JoinOn(sel(1, proto), "src") }
	}
	paper := paperQueries(30)
	// Survivors sit at even indices and together read streams 0..2, so the
	// push loop stays valid after the odd half is unregistered.
	specs := []struct {
		name  string
		build func() repro.Node
	}{
		{"q5-pushdown", paper["q5-pushdown"]},
		{"q3-negation", paper["q3-negation"]},
		{"q1-ftp", paper["q1-join"]},
		{"q4-distinct-join", paper["q4-distinct-join"]},
		{"q2-distinct", paper["q2-distinct"]},
		{"j-smtp", join("smtp")},
		{"j-telnet", join("telnet")},
		{"j-http", join("http")},
	}
	reg, err := repro.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	handles := make([]*repro.Query, len(specs))
	twins := make([]*repro.Engine, len(specs))
	for i, s := range specs {
		if handles[i], err = reg.Register(s.build(), repro.UPA, repro.WithQueryName(s.name)); err != nil {
			t.Fatalf("register %s: %v", s.name, err)
		}
		if i%2 == 0 {
			if twins[i], err = repro.Compile(s.build(), repro.UPA); err != nil {
				t.Fatalf("compile twin %s: %v", s.name, err)
			}
		}
	}
	if s := reg.Sharing(); s.SharedSources == 0 || s.SharedNodes == 0 {
		t.Fatalf("8 paper-derived queries must share sub-plans: %+v", s)
	}

	page := reg.PlanPage()
	rr := httptest.NewRecorder()
	page.Handler(rr, httptest.NewRequest("GET", page.Path, nil))
	if !strings.Contains(rr.Body.String(), "shared with") {
		t.Fatalf("/debug/plan carries no share annotations:\n%s", rr.Body.String())
	}

	protos := []string{"ftp", "telnet", "smtp", "http"}
	ts := int64(0)
	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ts++
			stream := int(ts) % 3
			vals := []repro.Value{
				repro.Int(ts * 7 % 13), repro.Int(ts * 3 % 7), repro.Str(protos[int(ts)%4]),
			}
			if err := reg.Push(stream, ts, vals...); err != nil {
				t.Fatal(err)
			}
			for _, tw := range twins {
				if tw == nil {
					continue
				}
				for _, id := range tw.Streams() {
					if id == stream {
						if err := tw.Push(stream, ts, vals...); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
		}
	}
	push(120)
	freed := 0
	for i := 1; i < len(specs); i += 2 {
		n, err := reg.Unregister(handles[i])
		if err != nil {
			t.Fatalf("unregister %s: %v", specs[i].name, err)
		}
		freed += n
	}
	if freed == 0 {
		t.Error("unregistering half the queries freed no state")
	}
	if n := len(reg.Queries()); n != len(specs)/2 {
		t.Fatalf("%d queries live after unregistering half, want %d", n, len(specs)/2)
	}
	push(120)
	for i := 0; i < len(specs); i += 2 {
		rows, err := handles[i].Snapshot()
		if err != nil {
			t.Fatalf("%s snapshot: %v", specs[i].name, err)
		}
		want, err := twins[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, wantBag := bagOf(rows), bagOf(want); got != wantBag {
			t.Errorf("%s diverged from standalone after churn\ngot:\n%s\nwant:\n%s",
				specs[i].name, got, wantBag)
		}
	}
}

// TestQueryAfterUnregister calls every exported Query method on a handle
// whose query was unregistered after traffic had built its private state:
// none may panic, the methods that read the retired state return
// ErrUnregistered, OpStats returns nil, and the surviving query keeps
// answering.
func TestQueryAfterUnregister(t *testing.T) {
	paper := paperQueries(30)
	reg, err := repro.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	keep, err := reg.Register(paper["q1-join"](), repro.UPA, repro.WithQueryName("keep"))
	if err != nil {
		t.Fatal(err)
	}
	gone, err := reg.Register(paper["q4-distinct-join"](), repro.UPA, repro.WithQueryName("gone"))
	if err != nil {
		t.Fatal(err)
	}
	protos := []string{"ftp", "telnet", "smtp", "http"}
	for ts := int64(1); ts <= 90; ts++ {
		if err := reg.Push(int(ts)%2, ts, repro.Int(ts/2%3), repro.Int(ts*3%7), repro.Str(protos[ts/2%4])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Unregister(gone); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cases := []struct {
		name string
		call func() error
		// retired: the method must fail with ErrUnregistered.
		retired bool
	}{
		{"Name", func() error { _ = gone.Name(); return nil }, false},
		{"Schema", func() error { _ = gone.Schema(); return nil }, false},
		{"Pattern", func() error { _ = gone.Pattern(); return nil }, false},
		{"Strategy", func() error { _ = gone.Strategy(); return nil }, false},
		{"View", func() error { _ = gone.View(); return nil }, false},
		{"OnEmit", func() error { gone.OnEmit(func(repro.Tuple) {}); return nil }, false},
		{"Explain", func() error { return gone.Explain(io.Discard) }, false},
		{"ExplainDOT", func() error { return gone.ExplainDOT(io.Discard, false) }, false},
		{"DeltaLatency", func() error { _, _ = gone.DeltaLatency(); return nil }, false},
		{"OpStats", func() error {
			if rows := gone.OpStats(); rows != nil {
				return fmt.Errorf("OpStats = %d rows, want nil", len(rows))
			}
			return nil
		}, false},
		{"Snapshot", func() error { _, err := gone.Snapshot(); return err }, true},
		{"ResultCount", func() error { _, err := gone.ResultCount(); return err }, true},
		{"ExplainAnalyze", func() error { return gone.ExplainAnalyze(io.Discard) }, true},
		{"ExplainDOT/analyze", func() error { return gone.ExplainDOT(io.Discard, true) }, true},
		{"Checkpoint", func() error {
			buf.Reset()
			err := gone.Checkpoint(&buf)
			if buf.Len() != 0 {
				return fmt.Errorf("Checkpoint wrote %d bytes", buf.Len())
			}
			return err
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			switch {
			case c.retired && !errors.Is(err, repro.ErrUnregistered):
				t.Errorf("err = %v, want ErrUnregistered", err)
			case !c.retired && err != nil:
				t.Errorf("err = %v, want nil", err)
			}
		})
	}
	if n, err := keep.ResultCount(); err != nil || n == 0 {
		t.Errorf("surviving query: %d rows, err %v", n, err)
	}
}
