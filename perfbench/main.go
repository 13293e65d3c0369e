// Command perfbench is the repository's benchmark. It runs one of three
// workloads (join-batch, stateful-batch, registry-push) against the
// sequential UPA engine in a closed loop from one caller goroutine, checks
// every result view against internal/reference, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into a plain, an instrumentation-flipped and a traced phase,
// and the metrics are the per-layer ones. See README.md for the workloads.
//
//	go run . --workload registry-push --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times an untraced run sets its workload up, taking
// the allowed CPUs in turn; one set-up of join-batch takes ~30 ms, so five
// per CPU on a 2-CPU host keep setup_s from following a single slow one.
// The first half come before the timed region, the rest after it.
const setupReps = 10

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// setupReps is how many times the untraced run sets the workload up;
	// setup_s is the mean over CPUs of each CPU's median.
	setupReps int
	// adjust and perturb are test hooks: adjust shrinks a workload,
	// perturb alters views before the correctness gate sees them.
	adjust  func(*spec)
	perturb perturbFunc
}

func main() {
	// The engine is synchronous and runs on the caller's goroutine. With one
	// P the garbage collector's work is charged to that caller instead of to
	// a second CPU whose availability on a shared host varies run to run.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traced int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (split across the phases of a traced run)")
	fs.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
	fs.StringVar(&o.spansDir, "spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traced == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o.setupReps = setupReps
	res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	res.print(stdout)
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's report.
type result struct {
	correct           bool
	attempted, failed int64
	wrongViews        int
	views             int
	// metrics go into the final JSON line; report lines are printed above
	// it for people.
	metrics    []metric
	report     []metric
	provenance map[string]any
}

func (r *result) print(w io.Writer) {
	for _, m := range r.report {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if b, err := json.Marshal(map[string]any{"provenance": r.provenance}); err == nil {
		fmt.Fprintln(w, string(b))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		// Only a NaN or infinite value can fail here; say so instead of
		// printing a line that is not the result.
		fmt.Fprintf(w, "perfbench: cannot encode result: %v\n", err)
		return
	}
	fmt.Fprintln(w, string(b))
}

// tally adds a phase's calls and views to the result.
func (r *result) tally(p *phase, c *checker) {
	r.attempted += p.attempted
	r.failed += p.failed
	if c != nil {
		r.wrongViews += c.wrong
		r.views += c.views
	}
}

func (r *result) finish() {
	r.correct = r.failed == 0 && r.wrongViews == 0 && r.views > 0
	if r.attempted == 0 {
		r.attempted = 1
		r.failed = 1
	}
	r.report = append(r.report,
		metric{"wrong_views", float64(r.wrongViews), "count"},
		metric{"error_ratio", float64(r.failed) / float64(r.attempted), "ratio"},
	)
}

// liveHeap returns the bytes still in use after a forced collection. It
// collects twice: objects parked in a sync.Pool survive the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(q*float64(len(xs))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// sliceQuantile cuts per-call latencies, in call order, into contiguous
// slices of at least 1000 calls (at most timedSlices of them), takes the
// nearest-rank q-quantile of each and returns their median, so a burst of
// interference from outside the process moves it less than it moves the
// quantile of all calls. It reorders lat.
func sliceQuantile(lat []int64, q float64) float64 {
	k := min(max(len(lat)/1000, 1), timedSlices)
	qs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		qs = append(qs, float64(quantile(lat[i*len(lat)/k:(i+1)*len(lat)/k], q)))
	}
	return median(qs)
}

func runWorkload(o options, log io.Writer) (*result, error) {
	sp, err := specFor(o.workload)
	if err != nil {
		return nil, err
	}
	if o.adjust != nil {
		o.adjust(&sp)
	}
	if o.trace {
		return runTraced(sp, o, log)
	}
	return runPlain(sp, o, log)
}

func provenance(sp spec, o options, in *inputs, arrivals, tableUpdates, calls int64) map[string]any {
	return map[string]any{
		"workload": sp.name, "seed": o.seed, "trace": o.trace,
		"window": sp.window, "batch": sp.batch,
		"arrivals": arrivals, "table_updates": tableUpdates, "ingest_calls": calls,
		"input_digest": in.digest(),
		"host":         hostFingerprint(),
	}
}

// runPlain measures the end-to-end metrics.
func runPlain(sp spec, o options, log io.Writer) (*result, error) {
	res := &result{}
	in := genInputs(sp, o.seed)
	heap0 := liveHeap()
	// Half the set-ups come before the timed region and half after it, and
	// like the timed region they visit every CPU the thread may run on: a
	// shared host's speed drifts from minute to minute, and one of its CPUs
	// set join-batch up 1.5x faster than the other.
	cpus := allowedCPUs()
	setups := make([][]float64, max(len(cpus), 1))
	setUp := func(i int) (*phase, error) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		slot := 0
		if len(cpus) > 0 {
			slot = i % len(cpus)
			_ = pinThread(cpus[slot])
			defer pinThread(cpus...)
		}
		runtime.GC()
		p, err := newPhase(sp, in, sp.instrumented, nil, 0)
		if err != nil {
			res.attempted, res.failed = 1, 1
			return nil, err
		}
		setups[slot] = append(setups[slot], p.setup.Seconds())
		return p, nil
	}
	before := max(o.setupReps/2, 1)
	var p *phase
	for i := 0; i < before; i++ {
		if p != nil {
			res.tally(p, nil)
			p = nil
		}
		var err error
		if p, err = setUp(i); err != nil {
			return res, err
		}
	}
	runErr := p.run(time.Duration(o.seconds * float64(time.Second)))
	calls := p.ingestCalls()
	p50 := p.ingestQuantile(0.50)
	wallP99 := p.ingestQuantile(0.99)
	p99 := p.ingestCPUQuantile(0.99)
	p.lat, p.cpuLat = nil, nil
	retained := float64(liveHeap()) - float64(heap0) - float64(p.ckpt.Cap())

	c := &checker{perturb: o.perturb, log: log}
	if runErr == nil {
		_, _, runErr = p.check(c)
	}
	res.tally(p, c)
	res.metrics = []metric{
		{"arrivals_per_s", p.arrivalsPerSec(), "1/s"},
		{"ingest_mean_us", p.ingestMean() / 1e3, "us"},
		{"ingest_cpu_p99_us", p99 / 1e3, "us"},
		{"peak_state_tuples", float64(p.peakState()), "count"},
		{"retained_heap_mb", retained / 1e6, "MB"},
	}
	res.report = []metric{
		{"ingest_calls", float64(calls), "count"},
		{"ingest_p50_us", p50 / 1e3, "us"},
		{"ingest_wall_p99_us", wallP99 / 1e3, "us"},
	}
	for i := before; i < o.setupReps; i++ {
		q, err := setUp(i)
		if err != nil {
			return res, err
		}
		res.tally(q, nil)
	}
	var setupSum float64
	var setupCPUs int
	for _, s := range setups {
		if len(s) > 0 {
			setupSum += median(s)
			setupCPUs++
		}
	}
	res.metrics = append(res.metrics, metric{"setup_s", setupSum / float64(setupCPUs), "s"})
	res.provenance = provenance(sp, o, in, p.arrivals(), int64(len(p.tableLog)), calls)
	res.finish()
	return res, runErr
}
