package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval recorded around a call into a layer. Times are
// nanoseconds since the recorder started; Parent is 0 for the root span.
type Span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// aggregate folds every per-call span of one name under one parent into a
// count and a total, keeping individual spans only for a bounded sample so
// the trace does not become the workload. The calls are made one at a time
// from one goroutine, so they never overlap each other or their siblings.
type aggregate struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
	// Self equals Total: nothing is traced inside a per-call span.
	Self int64 `json:"self_ns"`
}

// Keep every sampleEvery-th call of an aggregate, at most sampleMax of them.
const (
	sampleEvery = 1024
	sampleMax   = 256
)

// recorder keeps the spans of one workload run in memory; write saves them
// when the run ends. A nil *recorder records nothing, so untraced runs pay
// one nil check per site.
type recorder struct {
	run    string
	origin time.Time
	spans  []Span
	aggs   []*aggregate
	kept   map[*aggregate]int
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, origin: time.Now(), kept: map[*aggregate]int{}}
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	now := r.ns(time.Now())
	r.spans = append(r.spans, Span{Run: r.run, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = r.ns(time.Now())
}

// agg returns the aggregate for per-call spans named name under parent.
func (r *recorder) agg(parent int, name string) *aggregate {
	if r == nil {
		return nil
	}
	for _, a := range r.aggs {
		if a.Parent == parent && a.Name == name {
			return a
		}
	}
	a := &aggregate{Name: name, Parent: parent}
	r.aggs = append(r.aggs, a)
	return a
}

// call charges one per-call span [t0, t1) to a.
func (r *recorder) call(a *aggregate, t0, t1 time.Time) {
	if r == nil {
		return
	}
	d := t1.Sub(t0).Nanoseconds()
	a.Count++
	a.Total += d
	a.Self += d
	if a.Count%sampleEvery == 1 && r.kept[a] < sampleMax {
		r.kept[a]++
		r.spans = append(r.spans, Span{Run: r.run, ID: len(r.spans) + 1, Parent: a.Parent, Name: a.Name, Start: r.ns(t0), End: r.ns(t1)})
	}
}

// self is span id's duration minus the part of its interval that its child
// spans cover. Explicit children may nest or overlap, so their clipped
// intervals are merged; aggregated per-call children are sequential and
// disjoint from everything else, so their totals subtract directly. Sampled
// copies of per-call spans are not counted twice.
func (r *recorder) self(id int) int64 {
	p := r.spans[id-1]
	sampled := map[string]bool{}
	var covered int64
	for _, a := range r.aggs {
		if a.Parent == id {
			covered += a.Total
			sampled[a.Name] = true
		}
	}
	var ivs [][2]int64
	for _, s := range r.spans {
		if s.Parent != id || s.ID == id || sampled[s.Name] {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var curLo, curHi int64 = 0, -1
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return p.Dur() - covered
}

type spanLayer struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
	SelfNs int64  `json:"self_ns"`
}

// layers summarises every explicit span name: count, total and self time.
func (r *recorder) layers() []spanLayer {
	byName := map[string]*spanLayer{}
	var order []string
	sampled := map[[2]any]bool{}
	for _, a := range r.aggs {
		sampled[[2]any{a.Parent, a.Name}] = true
	}
	for _, s := range r.spans {
		if sampled[[2]any{s.Parent, s.Name}] {
			continue
		}
		l := byName[s.Name]
		if l == nil {
			l = &spanLayer{Name: s.Name}
			byName[s.Name] = l
			order = append(order, s.Name)
		}
		l.Count++
		l.Total += s.Dur()
		l.SelfNs += r.self(s.ID)
	}
	out := make([]spanLayer, 0, len(order)+len(r.aggs))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	for _, a := range r.aggs {
		out = append(out, spanLayer{Name: a.Name, Count: a.Count, Total: a.Total, SelfNs: a.Self})
	}
	return out
}

// write saves the run's spans, aggregates and per-layer self times as one
// JSON document under dir and returns its path.
func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.run+".json")
	doc := struct {
		Run        string       `json:"run"`
		Spans      []Span       `json:"spans"`
		Aggregates []*aggregate `json:"aggregates"`
		Layers     []spanLayer  `json:"layers"`
	}{r.run, r.spans, r.aggs, r.layers()}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
