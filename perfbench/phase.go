package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
)

// unit is one engine fed from its own replayed trace.
type unit struct {
	spec    unitSpec
	tr      *traceSet
	eng     *exec.Engine
	handles []*exec.QueryHandle // registry units only
	tables  [2]*relation.Table
	next    int64 // replay index of the next arrival
	batch   []exec.Arrival
	agg     *aggregate
	// Timed-region totals.
	calls, arrivals, ingestNs int64
}

// phase is one set-up and timed region of a workload: fresh engines, filled
// with their first window, then driven closed-loop by one caller goroutine
// until the deadline, then synced.
type phase struct {
	sp           spec
	instrumented bool
	rec          *recorder
	root         int // span everything in this phase hangs under
	cur          int // span the side work of the current region hangs under
	units        []*unit
	health       *obs.Health

	// Registry-push side work.
	feed     tableFeed
	tableLog []tableUpdate
	ckpt     bytes.Buffer
	ckptAt   int64
	ckpts    int64
	ckptNs   []int64
	updateNs []int64
	tickNs   []int64

	// Calls into the system under test, and how many returned an error.
	attempted, failed int64

	// Results.
	setup      time.Duration
	buildNs    int64 // Annotate + Build
	registerNs int64 // New / NewMulti + RegisterQuery
	fillNs     int64
	elapsed    time.Duration
	// lat logs each ingest call's wall time in ns, one log per CPU the
	// timed region ran on; slot is the log of the current slice.
	lat  [][]int64
	slot int
	// cpuLat logs the caller thread's CPU time in ns of every
	// sp.cpuEvery-th ingest call of the timed region.
	cpuLat     []int64
	mem0, mem1 runtime.MemStats
	stats0     []exec.Stats
	touched0   []int64
	syncNs     int64
	// prof0 is the operator profile at the start of the timed region, for
	// instrumented phases (only they time operators).
	prof0 []exec.OpProfile
}

// do counts one call into the system under test.
func (p *phase) do(err error) error {
	p.attempted++
	if err != nil {
		p.failed++
	}
	return err
}

func (p *phase) config() exec.Config {
	lazy := p.sp.window * 5 / 100
	if lazy < 1 {
		lazy = 1
	}
	cfg := exec.Config{EagerInterval: 1, LazyInterval: lazy}
	if p.instrumented {
		cfg.Metrics = obs.NewRegistry()
	}
	return cfg
}

// buildUnit plans, builds and registers one unit's queries on a fresh
// engine, with its own tables.
func (p *phase) buildUnit(us unitSpec, tr *traceSet, tables [2]*relation.Table, parent int) (*unit, error) {
	u := &unit{spec: us, tr: tr, tables: tables}
	physs := make([]*plan.Physical, len(us.queries))
	for i, q := range us.queries {
		t0 := time.Now()
		root := q.build(p.sp.window, tables)
		err := p.do(plan.Annotate(root, q.stats))
		if err == nil {
			physs[i], err = plan.Build(root, plan.UPA, plan.Options{})
			p.do(err)
		}
		t1 := time.Now()
		p.buildNs += t1.Sub(t0).Nanoseconds()
		p.rec.call(p.rec.agg(parent, "plan.build"), t0, t1)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", q.name, err)
		}
	}
	t0 := time.Now()
	var err error
	if us.registry {
		u.eng = exec.NewMulti(p.config())
		for i, q := range us.queries {
			var h *exec.QueryHandle
			h, err = u.eng.RegisterQuery(exec.QuerySpec{Name: q.name, Phys: physs[i]})
			if p.do(err) != nil {
				err = fmt.Errorf("register %s: %w", q.name, err)
				break
			}
			u.handles = append(u.handles, h)
		}
	} else {
		u.eng, err = exec.New(physs[0], p.config())
		p.do(err)
	}
	t1 := time.Now()
	p.registerNs += t1.Sub(t0).Nanoseconds()
	p.rec.call(p.rec.agg(parent, "exec.register"), t0, t1)
	if err != nil {
		return nil, err
	}
	u.batch = make([]exec.Arrival, p.sp.batch)
	return u, nil
}

// newPhase builds a workload's engines and fills their first window; the
// time it takes is the phase's set-up time. Its spans hang under root.
func newPhase(sp spec, in *inputs, instrumented bool, rec *recorder, root int) (*phase, error) {
	p := &phase{sp: sp, instrumented: instrumented, rec: rec, root: root}
	p.feed.pool = in.tableRows
	setup := rec.begin(p.root, "setup")
	t0 := time.Now()
	for i, us := range sp.units {
		u, err := p.buildUnit(us, in.traces[i], newTables(), setup)
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, u)
	}
	if instrumented && sp.healthEvery > 0 {
		eng := p.units[0].eng
		p.health = obs.NewHealth(obs.NewHistory(eng.Metrics(), obs.HistoryConfig{}), eng.HealthRules(exec.HealthSLO{})...)
		p.health.Tick()
	}
	fill := rec.begin(setup, "exec.fill")
	p.cur = fill
	tf := time.Now()
	for _, u := range p.units {
		end := int64(len(u.tr.recs))
		for u.next < end {
			if _, err := p.step(u, end, false); err != nil {
				return nil, fmt.Errorf("fill %s: %w", u.spec.name, err)
			}
		}
	}
	p.fillNs = time.Since(tf).Nanoseconds()
	rec.end(fill)
	p.setup = time.Since(t0)
	rec.end(setup)
	return p, nil
}

// step does any side work due before the unit's next arrival, then one
// ingest call of at most sp.batch arrivals, none at or past limit. When
// timed it records the call's latency. It returns the arrivals ingested.
func (p *phase) step(u *unit, limit int64, timed bool) (int64, error) {
	if err := p.sideWork(u); err != nil {
		return 0, err
	}
	n := int64(p.sp.batch)
	if u.next+n > limit {
		n = limit - u.next
	}
	var a exec.Arrival
	b := u.batch[:n]
	if p.sp.batch == 1 {
		a = u.tr.at(u.next)
	} else {
		for i := range b {
			b[i] = u.tr.at(u.next + int64(i))
		}
	}
	sample := timed && u.calls%p.sp.cpuEvery == 0
	var c0 int64
	if sample {
		c0 = threadCPUNanos()
	}
	var err error
	t0 := time.Now()
	if p.sp.batch == 1 {
		err = u.eng.Push(a.Stream, a.TS, a.Vals...)
	} else {
		err = u.eng.PushBatch(b)
	}
	t1 := time.Now()
	if sample {
		p.cpuLat = append(p.cpuLat, threadCPUNanos()-c0)
	}
	u.next += n
	if timed {
		d := t1.Sub(t0).Nanoseconds()
		p.lat[p.slot] = append(p.lat[p.slot], d)
		u.calls++
		u.arrivals += n
		u.ingestNs += d
		p.rec.call(u.agg, t0, t1)
	}
	return n, p.do(err)
}

// sideWork runs registry-push's checkpoint, table update and health tick
// when one is due before arrival u.next.
func (p *phase) sideWork(u *unit) error {
	g := u.next
	if g == 0 {
		return nil
	}
	if p.sp.checkpointEvery > 0 && g%p.sp.checkpointEvery == 0 {
		p.ckpt.Reset()
		t0 := time.Now()
		err := u.eng.CheckpointRegistry(&p.ckpt)
		t1 := time.Now()
		p.ckptNs = append(p.ckptNs, t1.Sub(t0).Nanoseconds())
		p.rec.call(p.rec.agg(p.cur, "checkpoint.encode"), t0, t1)
		if p.do(err) != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		p.ckptAt, p.ckpts = g, p.ckpts+1
	}
	if p.sp.tableEvery > 0 && g%p.sp.tableEvery == 0 {
		tu := p.feed.nextUpdate(g, u.tr.tsOf(g))
		p.tableLog = append(p.tableLog, tu)
		t0 := time.Now()
		err := u.eng.ApplyTableUpdate(u.tables[tu.table], tu.u)
		t1 := time.Now()
		p.updateNs = append(p.updateNs, t1.Sub(t0).Nanoseconds())
		p.rec.call(p.rec.agg(p.cur, "relation.update"), t0, t1)
		if p.do(err) != nil {
			return fmt.Errorf("table update: %w", err)
		}
	}
	if p.health != nil && g%p.sp.healthEvery == 0 {
		t0 := time.Now()
		p.health.Tick()
		t1 := time.Now()
		p.attempted++
		p.tickNs = append(p.tickNs, t1.Sub(t0).Nanoseconds())
		p.rec.call(p.rec.agg(p.cur, "obs.health_tick"), t0, t1)
	}
	return nil
}

// run drives the engines closed-loop, one ingest call at a time and round
// robin across units, until d has passed; the final Sync closes the timed
// region.
func (p *phase) run(d time.Duration) error {
	timed := p.rec.begin(p.root, "timed")
	p.cur = timed
	for _, u := range p.units {
		u.agg = p.rec.agg(timed, "exec.ingest."+u.spec.name)
		p.stats0 = append(p.stats0, u.eng.Stats())
		p.touched0 = append(p.touched0, u.eng.Touched())
	}
	// The caller thread visits every CPU it may run on, one slice of the
	// timed region at a time. On a shared host one CPU ran this benchmark
	// up to 1.4x faster than the other for minutes at a stretch, so a run
	// left on whichever CPU the scheduler picked reported that CPU's luck.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpus := allowedCPUs()
	if len(cpus) > 0 {
		defer pinThread(cpus...)
	}
	// Size the latency logs from the fill's pace, so that growing them does
	// not allocate inside the timed region.
	fillRate := float64(p.fillArrivals()) / (float64(p.fillNs) / 1e9)
	calls := int(2*fillRate*d.Seconds()) / p.sp.batch
	p.lat = make([][]int64, max(len(cpus), 1))
	for i := range p.lat {
		p.lat[i] = make([]int64, 0, calls/len(p.lat)+1024)
	}
	p.cpuLat = make([]int64, 0, calls/int(p.sp.cpuEvery)+1024)
	pin := func(slice int) {
		if len(cpus) > 0 {
			p.slot = slice % len(cpus)
			// A CPU that refuses the thread leaves it where it was; the
			// slice is still measured.
			_ = pinThread(cpus[p.slot])
		}
	}
	pin(0)
	p.ckptNs, p.updateNs, p.tickNs = nil, nil, nil
	if p.instrumented {
		p.prof0 = p.profiles()
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	deadline := start.Add(d)
	sliceLen := d / timedSlices
	slice, sliceEnd := 0, start.Add(sliceLen)
	var err error
loop:
	for i := 0; ; i++ {
		u := p.units[i%len(p.units)]
		if _, err = p.step(u, u.periodEnd(), true); err != nil {
			break
		}
		if i%len(p.units) != len(p.units)-1 {
			continue
		}
		now := time.Now()
		if !now.Before(sliceEnd) {
			slice++
			sliceEnd = now.Add(sliceLen)
			pin(slice)
		}
		if !now.Before(deadline) {
			// Finish every unit's current replay period, so a run always
			// ends on the same state whatever its length.
			for _, u := range p.units {
				for u.next%int64(len(u.tr.recs)) != 0 {
					if _, err = p.step(u, u.periodEnd(), true); err != nil {
						break loop
					}
				}
			}
			break
		}
	}
	sync := p.rec.begin(timed, "exec.sync")
	ts := time.Now()
	for _, u := range p.units {
		if e := p.do(u.eng.Sync()); e != nil && err == nil {
			err = fmt.Errorf("sync %s: %w", u.spec.name, e)
		}
	}
	p.syncNs = time.Since(ts).Nanoseconds()
	p.rec.end(sync)
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.mem1)
	p.rec.end(timed)
	return err
}

// timedSlices is how many slices the timed region is cut into; the caller
// moves to the next CPU at each.
const timedSlices = 20

// arrivals is the timed region's total across units.
func (p *phase) arrivals() int64 {
	var n int64
	for _, u := range p.units {
		n += u.arrivals
	}
	return n
}

func (p *phase) arrivalsPerSec() float64 {
	return float64(p.arrivals()) / p.elapsed.Seconds()
}

// ingestQuantile is the q-quantile of ingest-call wall time in ns: the
// mean over CPUs of each CPU's sliceQuantile. It reorders the logs.
func (p *phase) ingestQuantile(q float64) float64 {
	var sum float64
	var n int
	for _, lat := range p.lat {
		if len(lat) > 0 {
			sum += sliceQuantile(lat, q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ingestMean is the mean wall time of a timed ingest call in ns.
func (p *phase) ingestMean() float64 {
	var ns, calls int64
	for _, u := range p.units {
		ns += u.ingestNs
		calls += u.calls
	}
	return float64(ns) / float64(calls)
}

// ingestCPUQuantile is the q-quantile of the caller thread's CPU time per
// sampled ingest call in ns, over the whole timed region. It reorders the
// log.
func (p *phase) ingestCPUQuantile(q float64) float64 {
	return float64(quantile(p.cpuLat, q))
}

// ingestCalls counts the timed region's ingest calls.
func (p *phase) ingestCalls() int64 {
	var n int64
	for _, lat := range p.lat {
		n += int64(len(lat))
	}
	return n
}

// peakState sums Stats().MaxStateTuples over the phase's engines.
func (p *phase) peakState() int64 {
	var n int64
	for _, u := range p.units {
		n += int64(u.eng.Stats().MaxStateTuples)
	}
	return n
}

// drain advances every engine a full window past its last arrival, which
// expires all state, and returns how long that took.
func (p *phase) drain() (int64, error) {
	id := p.rec.begin(p.root, "exec.drain")
	defer p.rec.end(id)
	t0 := time.Now()
	for _, u := range p.units {
		if err := p.do(u.eng.Advance(u.eng.Clock() + p.sp.window)); err != nil {
			return 0, fmt.Errorf("drain %s: %w", u.spec.name, err)
		}
	}
	return time.Since(t0).Nanoseconds(), nil
}

// fillArrivals is how many arrivals filled the first windows.
func (p *phase) fillArrivals() int64 {
	var n int64
	for _, u := range p.units {
		n += int64(len(u.tr.recs))
	}
	return n
}

// periodEnd is the replay index where the unit's current period ends; an
// ingest call never crosses it.
func (u *unit) periodEnd() int64 {
	n := int64(len(u.tr.recs))
	return (u.next/n + 1) * n
}

// profiles returns the per-operator profile of every query of every unit.
// Operators a registry shares appear once per query that uses them; the
// operator layer metrics count each one once.
func (p *phase) profiles() []exec.OpProfile {
	var out []exec.OpProfile
	for _, u := range p.units {
		if u.handles == nil {
			out = append(out, u.eng.Profile()...)
			continue
		}
		for _, h := range u.handles {
			out = append(out, h.Profile()...)
		}
	}
	return out
}
