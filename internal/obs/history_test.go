package obs

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestHistoryCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs", "", nil)
	c.Add(100) // pre-existing traffic before the sampler attaches

	h := NewHistory(reg, HistoryConfig{Capacity: 8})
	h.Sample() // baseline: must not report the 100 as a spike
	c.Add(3)
	h.Sample()
	c.Add(7)
	h.Sample()

	ws := h.Window("reqs", 0)
	if len(ws) != 1 {
		t.Fatalf("Window returned %d series, want 1", len(ws))
	}
	w := ws[0]
	if want := []int64{0, 3, 7}; len(w.Values) != 3 ||
		w.Values[0] != want[0] || w.Values[1] != want[1] || w.Values[2] != want[2] {
		t.Errorf("Values = %v, want %v", w.Values, want)
	}
	if w.Cumulative != 110 {
		t.Errorf("Cumulative = %d, want 110", w.Cumulative)
	}
	if w.Kind != "counter" {
		t.Errorf("Kind = %q, want counter", w.Kind)
	}
}

func TestHistoryGaugeValues(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "", nil)
	h := NewHistory(reg, HistoryConfig{Capacity: 8})
	for _, v := range []int64{5, 2, 9} {
		g.Set(v)
		h.Sample()
	}
	w := h.Window("depth", 0)[0]
	if want := []int64{5, 2, 9}; w.Values[0] != want[0] || w.Values[1] != want[1] || w.Values[2] != want[2] {
		t.Errorf("Values = %v, want %v", w.Values, want)
	}
	if w.Cumulative != 9 {
		t.Errorf("gauge Cumulative = %d, want latest value 9", w.Cumulative)
	}
}

func TestHistoryRingWrap(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n", "", nil)
	h := NewHistory(reg, HistoryConfig{Capacity: 4})
	h.Sample() // baseline
	for i := 1; i <= 10; i++ {
		c.Add(int64(i))
		h.Sample()
	}
	if got := h.Samples(); got != 11 {
		t.Fatalf("Samples = %d, want 11", got)
	}
	w := h.Window("n", 0)[0]
	// Capacity 4: only the deltas of ticks 8, 9, 10 plus tick 7 survive.
	if want := []int64{7, 8, 9, 10}; len(w.Values) != 4 ||
		w.Values[0] != want[0] || w.Values[3] != want[3] {
		t.Errorf("wrapped Values = %v, want %v", w.Values, want)
	}
	if w.Cumulative != 55 {
		t.Errorf("Cumulative = %d, want 55", w.Cumulative)
	}
	// A narrower window trims from the old end.
	w2 := h.Window("n", 2)[0]
	if want := []int64{9, 10}; len(w2.Values) != 2 || w2.Values[0] != want[0] || w2.Values[1] != want[1] {
		t.Errorf("Window(2) Values = %v, want %v", w2.Values, want)
	}
}

func TestHistoryBareNameFansOutLabelSets(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits", "", Labels{"query": "q0"}).Add(1)
	reg.Counter("hits", "", Labels{"query": "q1"}).Add(2)
	h := NewHistory(reg, HistoryConfig{Capacity: 4})
	h.Sample()
	if ws := h.Window("hits", 0); len(ws) != 2 {
		t.Errorf("bare-name Window matched %d series, want 2", len(ws))
	}
	if ws := h.Window(`hits{query="q1"}`, 0); len(ws) != 1 {
		t.Errorf("exact-key Window matched %d series, want 1", len(ws))
	}
	keys := h.Series()
	if len(keys) != 2 {
		t.Errorf("Series listed %d entries, want 2", len(keys))
	}
}

// TestHistoryLogHistogramWindow checks the tentpole property on the sampled
// path: the window's merged bucket-wise deltas are exactly the distribution
// observed during the window, so windowed quantiles are exact — including
// when observations before the window must be excluded.
func TestHistoryLogHistogramWindow(t *testing.T) {
	reg := NewRegistry()
	lh := reg.LogHistogram("lat", "", nil)
	h := NewHistory(reg, HistoryConfig{Capacity: 8})
	lh.ObserveN(50, 50) // pre-attach traffic: excluded by the baseline tick
	h.Sample()

	ref := NewLogHistogram() // reference: only in-window observations
	for tick := 0; tick < 3; tick++ {
		for i := 0; i < 40; i++ {
			v := int64(100 + tick*1000 + i)
			lh.Observe(v)
			ref.Observe(v)
		}
		h.Sample()
	}

	w := h.Window("lat", 3)[0]
	if w.Quantiles == nil {
		t.Fatal("log-histogram window has no Quantiles")
	}
	got, want := *w.Quantiles, ref.Snapshot()
	// The 50 pre-attach observations must not leak into the window.
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Errorf("window Count/Sum = %d/%d, want %d/%d", got.Count, got.Sum, want.Count, want.Sum)
	}
	if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
		t.Errorf("window quantiles = %d/%d/%d, want %d/%d/%d",
			got.P50, got.P95, got.P99, want.P50, want.P95, want.P99)
	}
}

// TestLogSnapshotMergeProperty is the satellite property test: for random
// streams split arbitrarily into two histograms, Merge of the two snapshots
// equals the snapshot of one histogram fed the combined stream — in count,
// sum, max, and every quantile.
func TestLogSnapshotMergeProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b, both := NewLogHistogram(), NewLogHistogram(), NewLogHistogram()
		n := 50 + r.Intn(500)
		for i := 0; i < n; i++ {
			v := int64(r.Intn(1 << uint(1+r.Intn(40))))
			if r.Intn(2) == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			both.Observe(v)
		}
		got := a.Snapshot().Merge(b.Snapshot())
		want := both.Snapshot()
		if got.Count != want.Count || got.Sum != want.Sum || got.Max != want.Max {
			t.Fatalf("seed %d: merged Count/Sum/Max = %d/%d/%d, want %d/%d/%d",
				seed, got.Count, got.Sum, got.Max, want.Count, want.Sum, want.Max)
		}
		if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
			t.Fatalf("seed %d: merged quantiles = %d/%d/%d, want %d/%d/%d",
				seed, got.P50, got.P95, got.P99, want.P50, want.P95, want.P99)
		}
		for i, c := range want.Buckets {
			if got.Buckets[i] != c {
				t.Fatalf("seed %d: merged bucket %d = %d, want %d", seed, i, got.Buckets[i], c)
			}
		}
	}
}

// TestHistorySamplerRace runs the sampling goroutine at full tilt against
// live recorders and concurrent window readers; under -race this is the
// subsystem's thread-safety gate.
func TestHistorySamplerRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs", "", nil)
	g := reg.Gauge("depth", "", nil)
	lh := reg.LogHistogram("lat", "", nil)

	h := NewHistory(reg, HistoryConfig{Capacity: 32, Interval: time.Millisecond})
	h.Start()
	h.Start() // idempotent

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(i % 100)
				lh.Observe(seed*100 + i%1000)
				// Late registration while sampling runs.
				if i == 500 {
					reg.Counter("late", "", Labels{"w": string(rune('a' + seed))}).Inc()
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Series()
			h.Window("lat", 8)
			h.Samples()
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	h.Stop()
	h.Stop() // idempotent
	if h.Samples() == 0 {
		t.Error("sampler took no ticks")
	}
	h.Sample() // manual sampling stays valid after Stop
}

func TestHistoryNilSafe(t *testing.T) {
	var h *History
	h.Sample()
	h.Start()
	h.Stop()
	h.BeforeSample(func() {})
	h.AfterSample(func() {})
	if h.Samples() != 0 || h.Series() != nil || h.Window("x", 0) != nil ||
		h.Registry() != nil || h.Interval() != 0 {
		t.Error("nil History must read as empty")
	}
}

func TestHistoryHooks(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("derived", "", nil)
	h := NewHistory(reg, HistoryConfig{Capacity: 4})
	var afterRan int
	h.BeforeSample(func() { g.Set(42) }) // refresh runs before the read
	h.AfterSample(func() { afterRan++ })
	h.Sample()
	if w := h.Window("derived", 0)[0]; w.Values[0] != 42 {
		t.Errorf("BeforeSample refresh not visible to the tick: got %d", w.Values[0])
	}
	if afterRan != 1 {
		t.Errorf("AfterSample ran %d times, want 1", afterRan)
	}
}

func TestHistoryPage(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs", "", nil).Add(5)
	h := NewHistory(reg, HistoryConfig{Capacity: 4})
	h.Sample()
	h.Sample()
	page := HistoryPage(h)

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		page.Handler.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	rec := get("/debug/history")
	if rec.Code != 200 {
		t.Fatalf("listing status = %d, want 200", rec.Code)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", cc)
	}
	var listing struct {
		Samples int64       `json:"samples"`
		Series  []SeriesKey `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing not JSON: %v", err)
	}
	if listing.Samples != 2 || len(listing.Series) != 1 {
		t.Errorf("listing = %+v, want 2 samples / 1 series", listing)
	}

	rec = get("/debug/history?series=reqs&n=1")
	var windows []SeriesWindow
	if err := json.Unmarshal(rec.Body.Bytes(), &windows); err != nil {
		t.Fatalf("window response not JSON: %v", err)
	}
	if len(windows) != 1 || len(windows[0].Values) != 1 {
		t.Errorf("windows = %+v, want one series with one tick", windows)
	}

	if rec = get("/debug/history?series=nope"); rec.Code != 404 {
		t.Errorf("unknown series status = %d, want 404", rec.Code)
	}

	nilPage := HistoryPage(nil)
	rec = httptest.NewRecorder()
	nilPage.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history", nil))
	if rec.Code != 503 {
		t.Errorf("nil history status = %d, want 503", rec.Code)
	}
}
