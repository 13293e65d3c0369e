package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/reference"
	"repro/internal/tuple"
)

// shrink makes a workload small enough for a test: short windows and
// frequent side work, so every layer still runs.
func shrink(sp *spec) {
	sp.window = 200
	if sp.tableEvery > 0 {
		sp.tableEvery, sp.checkpointEvery, sp.healthEvery = 16, 2048, 64
	}
}

func smallRun(t *testing.T, workload string, traced bool, perturb perturbFunc) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	res, err := runWorkload(options{
		workload: workload, seed: 7, seconds: 0.3, trace: traced,
		spansDir: t.TempDir(), setupReps: 2, adjust: shrink, perturb: perturb,
	}, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	return res, log.String()
}

// benchmarkFile is the repository's BENCHMARK.json, which names every
// metric the program must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, out string) (line struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return line
}

func TestSmallRunsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, log := smallRun(t, w, traced, nil)
			var out bytes.Buffer
			res.print(&out)
			line := lastLine(t, out.String())
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 || res.wrongViews != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d wrong_views=%d\n%s",
					w, traced, line.Correct, line.Failed, line.Attempted, res.wrongViews, log)
			}
			if !strings.Contains(out.String(), "\nwrong_views ") {
				t.Errorf("%s trace=%v: no wrong_views line", w, traced)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, name, got, unit)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(line.Metrics), len(want))
			}
			if !traced {
				for name, m := range line.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

func TestPerturbedViewIsCaught(t *testing.T) {
	extra := reference.Row{tuple.Int(-1)}
	for _, tc := range []struct{ workload, view string }{
		{joinBatch, "q1-ftp"},
		{statefulBatch, "q6-groupby-protocol"},
		{registryPush, "window-join-nrr"},
		{registryPush, "restored q3-negation"},
	} {
		res, log := smallRun(t, tc.workload, false, func(view string, rows []reference.Row) []reference.Row {
			if view == tc.view {
				return append(rows, extra)
			}
			return rows
		})
		want := 1
		if tc.view == "q1-ftp" {
			want = 4 // join-batch runs four Query 1 engines
		}
		if res.correct || res.wrongViews != want {
			t.Errorf("%s/%s: correct=%v wrong_views=%d, want false and %d", tc.workload, tc.view, res.correct, res.wrongViews, want)
		}
		if !strings.Contains(log, "view "+tc.view+" is wrong") {
			t.Errorf("%s/%s: no diagnostic in %q", tc.workload, tc.view, log)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder("test")
	add := func(parent int, name string, start, end int64) int {
		r.spans = append(r.spans, Span{Run: r.run, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
		return len(r.spans)
	}
	root := add(0, "root", 0, 100)
	// Two overlapping children cover [10, 40); a third sticks out past the
	// parent's end and counts only up to 100.
	a := add(root, "a", 10, 30)
	add(root, "b", 20, 40)
	add(root, "c", 90, 120)
	// A grandchild is the child's business, not the root's.
	add(a, "a1", 12, 18)
	// Per-call spans aggregated under root: 3 calls, 15 in total, one kept
	// as a sample that must not be counted twice.
	agg := r.agg(root, "call")
	agg.Count, agg.Total, agg.Self = 3, 15, 15
	add(root, "call", 50, 55)

	if got, want := r.self(root), int64(100-30-10-15); got != want {
		t.Errorf("self(root) = %d, want %d", got, want)
	}
	if got, want := r.self(a), int64(20-6); got != want {
		t.Errorf("self(a) = %d, want %d", got, want)
	}
	layers := map[string]spanLayer{}
	for _, l := range r.layers() {
		layers[l.Name] = l
	}
	if l := layers["root"]; l.Total != 100 || l.SelfNs != 45 {
		t.Errorf("root layer = %+v, want total 100 self 45", l)
	}
	if l := layers["call"]; l.Count != 3 || l.Total != 15 {
		t.Errorf("call layer = %+v, want 3 calls totalling 15", l)
	}
}

func TestSpanSampleIsBounded(t *testing.T) {
	r := newRecorder("test")
	root := r.begin(0, "root")
	a := r.agg(root, "call")
	t0 := r.origin
	for i := 0; i < sampleEvery*(sampleMax+10); i++ {
		r.call(a, t0, t0)
	}
	r.end(root)
	if a.Count != int64(sampleEvery*(sampleMax+10)) {
		t.Errorf("count = %d", a.Count)
	}
	if kept := len(r.spans) - 1; kept != sampleMax {
		t.Errorf("kept %d sampled spans, want %d", kept, sampleMax)
	}
}

func TestInputDigest(t *testing.T) {
	for _, w := range workloadNames {
		sp, err := specFor(w)
		if err != nil {
			t.Fatal(err)
		}
		shrink(&sp)
		a, b, c := genInputs(sp, 3).digest(), genInputs(sp, 3).digest(), genInputs(sp, 4).digest()
		if a != b {
			t.Errorf("%s: seed 3 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same digest %s", w, a)
		}
	}
}

func TestReplayShiftsPeriods(t *testing.T) {
	tr := genTrace(1, 2, 50, 0.5)
	n := int64(len(tr.recs))
	for _, g := range []int64{0, 1, n - 1, n, n + 1, 3*n + 7} {
		a := tr.at(g)
		if a.TS != tr.tsOf(g) || a.Stream != int(g%2) {
			t.Errorf("arrival %d: ts %d stream %d, want ts %d stream %d", g, a.TS, a.Stream, tr.tsOf(g), g%2)
		}
	}
	w := tr.lastWindow(3*n+8, 50)
	if int64(len(w)) != 100 || w[0].TS != tr.tsOf(3*n+7)-49 {
		t.Errorf("last window has %d arrivals from ts %d", len(w), w[0].TS)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", joinBatch, "--trace", "2"},
		{"--workload", joinBatch, "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
