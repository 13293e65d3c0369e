package exec

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Config tunes the executor's maintenance cadence, mirroring the two
// experimental parameters of Section 6.1, and attaches observability.
type Config struct {
	// EagerInterval is the time between eager expiration passes (operators
	// that must react to expirations immediately: duplicate elimination,
	// group-by, negation, intersection). Section 6.1 sets it to the tuple
	// inter-arrival time; default 1.
	EagerInterval int64
	// LazyInterval is the time between lazy maintenance passes (join state
	// trims and result-view expiration). Section 6.1 sets it to five
	// percent of the window size; default 1 (fully eager) if unset.
	LazyInterval int64
	// OnEmit, when set, observes every tuple the query emits on its output
	// stream (positive and negative), before it is folded into the view.
	OnEmit func(t tuple.Tuple)
	// Metrics, when set, is the registry the engine registers its
	// instruments in (see the Metric* name constants) so an exposition
	// endpoint can scrape a live run. Setting it also enables wall-clock
	// Push latency sampling. When nil the engine keeps its counters in a
	// private registry — counter updates are single atomic adds — and
	// records no wall-clock timings.
	Metrics *obs.Registry
	// Tracer, when set, receives typed events (arrivals, emissions,
	// retractions, window/view expirations, table updates, eager/lazy
	// maintenance passes). When nil, tracing costs one nil check per site.
	Tracer *obs.Tracer
	// MetricLabels are merged into every metric series the engine registers
	// (engine-wide and per-operator). Sharded execution sets {"shard": i} so
	// one registry can carry all shards' series side by side.
	MetricLabels obs.Labels
	// TraceSampleEvery enables per-delta span sampling: when > 0 and Tracer
	// wants EvDeltaSpan events, one in every TraceSampleEvery admitted
	// arrivals (or arrival runs, on the batch path) is traced through the
	// plan, emitting one EvDeltaSpan per operator it touches with that
	// operator's dwell time. Sampling keeps the hot path within the <5%
	// instrumentation overhead budget; 0 (the default) disables spans
	// entirely and costs one integer compare per arrival.
	TraceSampleEvery int
}

// Ingest rejections. Push and PushBatch validate a whole batch before any
// state changes and return one of these, wrapped with the offending
// arrival's batch index; a rejected batch leaves the engine as it was.
var (
	// ErrSchema: an arrival's arity differs from its stream's schema, or a
	// value's kind is neither the column's kind nor KindNull.
	ErrSchema = errors.New("exec: arrival does not match the stream schema")
	// ErrUnknownStream: no registered query reads the arrival's stream.
	ErrUnknownStream = errors.New("exec: no source for stream")
	// ErrTimeRegression: a timestamp precedes the engine clock or an earlier
	// arrival of the same batch.
	ErrTimeRegression = errors.New("exec: timestamp regresses")
)

// Stats are cumulative executor counters, read from the engine's metrics
// registry.
type Stats struct {
	// Arrivals counts base-stream tuples pushed.
	Arrivals int64
	// Emitted counts positive output-stream tuples.
	Emitted int64
	// Retracted counts negative output-stream tuples.
	Retracted int64
	// WindowNegatives counts retractions generated by materialized windows
	// (the NT strategy's extra tuples).
	WindowNegatives int64
	// MaxStateTuples is the high-water mark of stored tuples across all
	// operator state, materialized windows, and the result view. State is
	// sampled on the first arrival, every 64th arrival thereafter, and on
	// every Sync, so sub-64-tuple fluctuations between samples can be
	// missed, but short runs and final readings are exact.
	MaxStateTuples int
}

// Engine drives a shared dataflow serving one or more registered continuous
// queries: it admits base-stream arrivals in timestamp order, routes them
// (and their eventual retractions) through the canonicalized operator DAG —
// each shared prefix traversed once — fans output deltas out to the
// per-query views, and advances operator clocks as time passes.
//
// New builds a single-query engine (the legacy shape: one plan, one view);
// NewMulti builds an empty registry engine that queries are added to with
// RegisterQuery and removed from with UnregisterQuery.
type Engine struct {
	// phys and view alias the first registered query (the only one for
	// engines built with New); legacy single-query accessors and the
	// single-engine checkpoint format read them.
	phys  *plan.Physical
	view  View
	cfg   Config
	clock int64
	// queries are the live registered queries in registration order.
	queries []*queryUnit
	nextQID int
	// sources and tables are the live canonical window leaves and
	// table-consuming operators, in registration order.
	sources []*plan.PSource
	tables  []*plan.PNode
	// nodeByKey/srcByKey map canonical share keys to the physical nodes that
	// carry them (a list: duplicate sub-plans within one query adopt separate
	// physical nodes under the same key). nodeKey/srcKey invert the mapping
	// for retirement; nodeRefs/srcRefs hold each canonical node's query
	// refcount; tableIDs pins table pointer identity into node share keys.
	nodeByKey map[string][]*plan.PNode
	srcByKey  map[string][]*plan.PSource
	nodeKey   map[*plan.PNode]string
	srcKey    map[*plan.PSource]string
	nodeRefs  map[*plan.PNode]*statebuf.RefCount
	srcRefs   map[*plan.PSource]*statebuf.RefCount
	tableIDs  map[*relation.Table]int
	// canonID numbers canonical nodes and sources (keys are *plan.PNode or
	// *plan.PSource) for share-key input identities; canonSeq is its running
	// counter. Separate from nextOpID so metric ids can stay pre-order.
	canonID  map[any]int
	canonSeq int
	// nextOpID numbers canonical operators for metric labels; never reused.
	nextOpID int
	// lastEager/lastLazy track the maintenance cadence.
	lastEager, lastLazy int64
	// order lists operators children-first for maintenance passes.
	order []*plan.PNode
	// eager flags operators that must expire state eagerly (Section 2.3).
	eager map[*plan.PNode]bool
	// eagerNodes/lazyNodes partition order by that flag once at build time,
	// so the per-tick maintenance passes iterate exactly the nodes they own
	// instead of filtering order through the map on every advance.
	eagerNodes, lazyNodes []*plan.PNode
	// ops holds each operator's stats cell (inputs, outputs, expiration
	// work, state, wall time) for Profile and EXPLAIN ANALYZE, backed by
	// registry instruments.
	ops    map[*plan.PNode]*opStats
	reg    *obs.Registry
	met    engineMetrics
	tracer *obs.Tracer
	// timed enables wall-clock Push latency sampling (only when the caller
	// supplied a registry, so the default path never calls time.Now).
	timed bool
	// batchScratch is the engine-owned staging slice for stamped runs on the
	// PushBatch fast path; operators never retain the run slice, so one
	// buffer per engine suffices.
	batchScratch []tuple.Tuple
	// deltaPos/deltaNeg count output deltas applied to the view since the
	// last latency flush. Every entry point (Push, PushBatch, Advance, table
	// updates, Sync) flushes them into the delta-latency histograms with one
	// shared origin→now reading, so per-delta latency costs zero clock reads
	// on top of the entry point's own timing.
	deltaPos, deltaNeg int64
	// spanEvery/spanLeft implement 1-in-N span sampling (Config.
	// TraceSampleEvery); spanActive marks the currently-ingesting arrival
	// (or run) as traced, making feed/feedBatch emit EvDeltaSpan events.
	spanEvery, spanLeft int
	spanActive          bool
	// one is Push's batch of one, engine-owned so Push allocates nothing.
	one [1]Arrival
	// emits is the free list feedBatch draws its output buffers from: one
	// buffer per plan level in flight, reused across batches. Engine-owned
	// (an engine runs on one goroutine at a time), so taking one is a slice
	// pop rather than a sync.Pool round trip — the batch of one that Push
	// sends pays it once per operator per arrival.
	emits []*operator.Emit
}

// New builds a single-query engine for a physical plan: an empty registry
// engine with the one query registered, its view reachable through View(),
// and its output observed by cfg.OnEmit. This is the legacy shape every
// existing caller (sharding, checkpointing, the facade's Compile) uses.
func New(phys *plan.Physical, cfg Config) (*Engine, error) {
	e := NewMulti(cfg)
	if _, err := e.RegisterQuery(QuerySpec{Phys: phys, OnEmit: cfg.OnEmit}); err != nil {
		return nil, err
	}
	return e, nil
}

// NewMulti builds an empty multi-query engine: a registry bound to the
// streams and tables its registered queries read. Queries are added with
// RegisterQuery (which canonicalizes their plans into the shared dataflow)
// and removed with UnregisterQuery. Config.OnEmit is ignored here — each
// query carries its own emit observer in its QuerySpec.
func NewMulti(cfg Config) *Engine {
	if cfg.EagerInterval <= 0 {
		cfg.EagerInterval = 1
	}
	if cfg.LazyInterval <= 0 {
		cfg.LazyInterval = 1
	}
	reg := cfg.Metrics
	timed := reg != nil
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:   cfg,
		clock: -1, lastEager: -1, lastLazy: -1,
		eager:     make(map[*plan.PNode]bool),
		ops:       make(map[*plan.PNode]*opStats),
		nodeByKey: make(map[string][]*plan.PNode),
		srcByKey:  make(map[string][]*plan.PSource),
		nodeKey:   make(map[*plan.PNode]string),
		srcKey:    make(map[*plan.PSource]string),
		nodeRefs:  make(map[*plan.PNode]*statebuf.RefCount),
		srcRefs:   make(map[*plan.PSource]*statebuf.RefCount),
		tableIDs:  make(map[*relation.Table]int),
		canonID:   make(map[any]int),
		reg:       reg,
		met:       newEngineMetrics(reg, cfg.MetricLabels),
		tracer:    cfg.Tracer,
		timed:     timed,
		spanEvery: cfg.TraceSampleEvery,
		spanLeft:  cfg.TraceSampleEvery,
	}
	return e
}

// Clock returns the engine's current logical time.
func (e *Engine) Clock() int64 { return e.clock }

// Stats returns the cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Arrivals:        e.met.arrivals.Value(),
		Emitted:         e.met.emitted.Value(),
		Retracted:       e.met.retracted.Value(),
		WindowNegatives: e.met.windowNegatives.Value(),
		MaxStateTuples:  int(e.met.maxStateTuples.Value()),
	}
}

// Metrics returns the registry backing the engine's counters (the one
// passed in Config.Metrics, or the engine's private registry).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// View returns the first registered query's materialized result view (the
// only view of a single-query engine). Registry callers reach per-query
// views through their QueryHandle.
func (e *Engine) View() View { return e.view }

// Streams returns the base-stream ids the registered queries read
// (deduplicated, registration order).
func (e *Engine) Streams() []int {
	seen := map[int]bool{}
	var out []int
	for _, src := range e.sources {
		if !seen[src.StreamID] {
			seen[src.StreamID] = true
			out = append(out, src.StreamID)
		}
	}
	return out
}

// Push admits one base-stream tuple: a PushBatch of one. Timestamps must be
// non-decreasing across all streams (Section 2's arrival model).
func (e *Engine) Push(streamID int, ts int64, vals ...tuple.Value) error {
	e.one[0] = Arrival{Stream: streamID, TS: ts, Vals: vals}
	err := e.pushBatchFrom(0, e.one[:])
	e.one[0].Vals = nil // do not pin the caller's values
	return err
}

// observeDeltas charges every output delta applied since the last flush
// with one shared ingest→emit latency reading. One reading per entry point
// (not per delta) keeps the instrumented hot path at zero extra clock
// reads; within one Push/PushBatch call all deltas share the same origin
// anyway.
func (e *Engine) observeDeltas(lat int64) {
	if e.deltaPos > 0 {
		e.met.latPos.ObserveN(lat, e.deltaPos)
		e.deltaPos = 0
	}
	if e.deltaNeg > 0 {
		e.met.latNeg.ObserveN(lat, e.deltaNeg)
		e.deltaNeg = 0
	}
	for _, q := range e.queries {
		if q.latPos != nil && q.deltaPos > 0 {
			q.latPos.ObserveN(lat, q.deltaPos)
		}
		if q.latNeg != nil && q.deltaNeg > 0 {
			q.latNeg.ObserveN(lat, q.deltaNeg)
		}
		q.deltaPos, q.deltaNeg = 0, 0
	}
}

// DeltaLatency returns snapshots of the ingest→emit latency distribution
// for positive (insertions) and negative (retractions) output deltas.
// Latency is recorded only when the engine runs with Config.Metrics set.
func (e *Engine) DeltaLatency() (pos, neg obs.LogHistogramSnapshot) {
	return e.met.latPos.Snapshot(), e.met.latNeg.Snapshot()
}

// Violations sums pattern-conformance violations across all operators; a
// conformant run reports 0.
func (e *Engine) Violations() int64 {
	var total int64
	for _, st := range e.ops {
		_, n := st.violations()
		total += n
	}
	return total
}

// Arrival is one base-stream tuple for batched ingest.
type Arrival struct {
	Stream int
	TS     int64
	Vals   []tuple.Value
}

// PushBatch admits a run of arrivals in one call; Push is a batch of one.
// The whole batch is validated first (validateBatch): a malformed,
// unknown-stream or time-regressing arrival is rejected before any state
// changes. Admission is then vectorized: the batch is split into maximal
// contiguous same-(stream, timestamp) runs, each run advances the clock and
// counts arrivals once, and whole runs flow down the plan through
// ProcessBatch with reused Emit buffers (DESIGN.md "Batch execution").
// Maintenance still runs at every timestamp change, and runs never regroup
// tuples across streams or timestamps, so every operator sees the same input
// sequence one-at-a-time admission would deliver. Per-call overhead
// (wall-clock sampling, state sampling) is paid once per batch:
// MetricPushNanos records one observation covering the whole batch, and
// state is sampled only when a sampling point (first arrival or a 64-arrival
// boundary) fell inside it.
func (e *Engine) PushBatch(batch []Arrival) error {
	return e.pushBatchFrom(0, batch)
}

// pushBatchFrom is PushBatch with an explicit monotonic origin time (in
// obs.Nanotime units; 0 means "now"). Sharded ingest stamps the origin when
// a batch's first arrival is buffered for its shard, so recorded delta
// latency covers buffer wait and queue wait, not just engine processing.
func (e *Engine) pushBatchFrom(origin int64, batch []Arrival) error {
	if len(batch) == 0 {
		return nil
	}
	if err := e.validateBatch(batch); err != nil {
		return err
	}
	var start int64
	if e.timed {
		start = obs.Nanotime()
		if origin <= 0 {
			origin = start
		}
	}
	before := e.met.arrivals.Value()
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Stream == batch[i].Stream && batch[j].TS == batch[i].TS {
			j++
		}
		err := e.ingestRun(batch[i].Stream, batch[i].TS, batch[i:j])
		e.spanActive = false
		if err != nil {
			return err
		}
		i = j
	}
	if after := e.met.arrivals.Value(); before == 0 || after>>6 != before>>6 {
		e.sampleState()
	}
	if e.timed {
		now := obs.Nanotime()
		e.observeDeltas(now - origin)
		e.met.pushNanos.Observe(now - start)
	}
	return nil
}

// validateBatch checks every arrival in one pass over the batch's runs:
// timestamps non-decreasing from the clock, a source for the stream, and
// values that match each reading source's schema in arity and kind (KindNull
// fits any column). Errors wrap ErrTimeRegression, ErrUnknownStream or
// ErrSchema with the offending batch index.
func (e *Engine) validateBatch(batch []Arrival) error {
	clock := e.clock
	for i := 0; i < len(batch); {
		stream, ts := batch[i].Stream, batch[i].TS
		if ts < clock {
			return fmt.Errorf("exec: batch[%d]: timestamp %d before %d: %w", i, ts, clock, ErrTimeRegression)
		}
		clock = ts
		j := i + 1
		for j < len(batch) && batch[j].Stream == stream && batch[j].TS == ts {
			j++
		}
		fed := false
		for _, src := range e.sources {
			if src.StreamID != stream {
				continue
			}
			fed = true
			for k := i; k < j; k++ {
				if err := conform(src.Schema, batch[k].Vals); err != nil {
					return fmt.Errorf("exec: batch[%d]: stream %d: %v: %w", k, stream, err, ErrSchema)
				}
			}
		}
		if !fed {
			return fmt.Errorf("exec: batch[%d]: stream %d: %w", i, stream, ErrUnknownStream)
		}
		i = j
	}
	return nil
}

// conform describes how vals fails to fit schema, or returns nil.
func conform(schema *tuple.Schema, vals []tuple.Value) error {
	if len(vals) != schema.Len() {
		return fmt.Errorf("%d values, schema has %d columns", len(vals), schema.Len())
	}
	for i := range vals {
		if k := vals[i].Kind; k != schema.Col(i).Kind && k != tuple.KindNull {
			return fmt.Errorf("column %d is %v, value is %v", i, schema.Col(i).Kind, k)
		}
	}
	return nil
}

// ingestRun admits a validated maximal same-(stream, timestamp) run: clock
// advance, arrival counting, and maintenance happen once for the whole run
// (per-tuple they would no-op after the first arrival anyway, since the clock
// does not move), then the stamped tuples flow down the plan as one batch.
func (e *Engine) ingestRun(streamID int, ts int64, run []Arrival) error {
	if err := e.advance(ts); err != nil {
		return err
	}
	e.met.arrivals.Add(int64(len(run)))
	if e.tracer.Wants(obs.EvArrival) {
		for range run {
			e.tracer.Emit(obs.Event{Kind: obs.EvArrival, TS: ts, Stream: streamID})
		}
	}
	if e.spanEvery > 0 {
		e.spanLeft -= len(run)
		if e.spanLeft <= 0 {
			e.spanLeft = e.spanEvery
			e.spanActive = e.tracer.Wants(obs.EvDeltaSpan)
		}
	}
	matches := 0
	var src *plan.PSource
	for _, s := range e.sources {
		if s.StreamID == streamID {
			matches++
			src = s
		}
	}
	if matches == 1 {
		return e.ingestRunSingle(src, ts, run)
	}
	// Several windows read this stream (self-join shapes, or two queries
	// with incompatible window specs): stamped tuples and evictions
	// interleave across the sources arrival by arrival, so batching a run
	// would reorder deliveries. Keep it exact.
	for _, a := range run {
		for _, s := range e.sources {
			if s.StreamID != streamID {
				continue
			}
			stamped, evicted, err := s.Window.Arrive(tuple.New(ts, a.Vals...))
			if err != nil {
				return err
			}
			if err := e.feedSource(s, stamped); err != nil {
				return err
			}
			for _, ev := range evicted {
				if err := e.feedSource(s, ev.Negative(ts)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ingestRunSingle stamps a run through its (single) source window and feeds
// the plan whole sub-runs. Count-based windows evict on arrival; the evicted
// negatives must follow their arrival's stamped tuple and precede the next
// arrival's, so an eviction flushes the stamped prefix before the negatives
// go down — time-based windows never evict here and forward the run intact.
func (e *Engine) ingestRunSingle(src *plan.PSource, ts int64, run []Arrival) error {
	stamped := e.batchScratch[:0]
	for _, a := range run {
		st, evicted, err := src.Window.Arrive(tuple.New(ts, a.Vals...))
		if err != nil {
			e.batchScratch = stamped[:0]
			return err
		}
		stamped = append(stamped, st)
		if len(evicted) > 0 {
			if err := e.feedSourceBatch(src, stamped); err != nil {
				e.batchScratch = stamped[:0]
				return err
			}
			stamped = stamped[:0]
			for _, ev := range evicted {
				if err := e.feedSource(src, ev.Negative(ts)); err != nil {
					e.batchScratch = stamped
					return err
				}
			}
		}
	}
	err := e.feedSourceBatch(src, stamped)
	e.batchScratch = stamped[:0]
	return err
}

// Advance moves logical time forward with no arrival, so expirations alone
// can update the answer (the Section 2.3 aggregate example).
func (e *Engine) Advance(ts int64) error {
	if ts < e.clock {
		return fmt.Errorf("exec: time %d before %d: %w", ts, e.clock, ErrTimeRegression)
	}
	var t0 int64
	if e.timed {
		t0 = obs.Nanotime()
	}
	err := e.advance(ts)
	if e.timed {
		e.observeDeltas(obs.Nanotime() - t0)
	}
	return err
}

// ApplyTableUpdate applies one relation/NRR mutation and routes its
// consequences (for retroactive tables) through the plan.
func (e *Engine) ApplyTableUpdate(tbl *relation.Table, u relation.Update) error {
	if u.TS < e.clock {
		return fmt.Errorf("exec: table update at %d before %d: %w", u.TS, e.clock, ErrTimeRegression)
	}
	var t0 int64
	if e.timed {
		t0 = obs.Nanotime()
	}
	if err := e.advance(u.TS); err != nil {
		return err
	}
	if err := tbl.Apply(u); err != nil {
		return err
	}
	err := e.routeTableUpdate(tbl, u)
	if e.timed {
		e.observeDeltas(obs.Nanotime() - t0)
	}
	return err
}

// RouteTableUpdate routes the consequences of a table mutation that has
// already been applied to tbl. Sharded execution uses this: the update is
// applied to the shared table once, centrally, then routed through every
// shard's copy of the plan. Callers must Advance the engine to u.TS BEFORE
// the central apply: expirations pending at or before u.TS have to probe the
// pre-update rows, or an NT retraction would join against the mutated table
// and mis-retract (ApplyTableUpdate orders advance before apply the same
// way).
func (e *Engine) RouteTableUpdate(tbl *relation.Table, u relation.Update) error {
	if u.TS < e.clock {
		return fmt.Errorf("exec: table update at %d before %d: %w", u.TS, e.clock, ErrTimeRegression)
	}
	var t0 int64
	if e.timed {
		t0 = obs.Nanotime()
	}
	if err := e.advance(u.TS); err != nil {
		return err
	}
	err := e.routeTableUpdate(tbl, u)
	if e.timed {
		e.observeDeltas(obs.Nanotime() - t0)
	}
	return err
}

func (e *Engine) routeTableUpdate(tbl *relation.Table, u relation.Update) error {
	e.met.tableUpdates.Inc()
	if e.tracer.Wants(obs.EvTableUpdate) {
		e.tracer.Emit(obs.Event{Kind: obs.EvTableUpdate, TS: u.TS, Node: tbl.Name()})
	}
	for _, pn := range e.tables {
		top, ok := pn.Op.(operator.TableOperator)
		if !ok || top.Table() != tbl {
			continue
		}
		outs, err := top.ApplyTableUpdate(u, e.clock)
		if err != nil {
			return err
		}
		if err := e.propagate(pn, outs); err != nil {
			return err
		}
	}
	return nil
}

// Sync forces all pending expirations (state and view) up to the current
// clock; call it before observing the result. Sync also samples state, so
// the MaxStateTuples high-water mark is current after it returns.
func (e *Engine) Sync() error {
	if e.clock < 0 {
		return nil // nothing has happened yet
	}
	var start int64
	if e.timed {
		start = obs.Nanotime()
	}
	const forever = int64(-1) << 62
	e.lastEager, e.lastLazy = forever, forever
	err := e.advance(e.clock)
	e.lastEager, e.lastLazy = e.clock, e.clock
	e.met.watermark.Set(e.clock)
	e.sampleState()
	if e.timed {
		d := obs.Nanotime() - start
		e.observeDeltas(d)
		e.met.refreshNanos.Observe(d)
	}
	return err
}

// Snapshot syncs and returns the first registered query's current result
// multiset (the only one of a single-query engine).
func (e *Engine) Snapshot() ([]tuple.Tuple, error) {
	if err := e.Sync(); err != nil {
		return nil, err
	}
	if e.view == nil {
		return nil, nil
	}
	return e.view.Snapshot(), nil
}

// ResultCount syncs and returns the first registered query's current result
// cardinality.
func (e *Engine) ResultCount() (int, error) {
	if err := e.Sync(); err != nil {
		return 0, err
	}
	if e.view == nil {
		return 0, nil
	}
	return e.view.Len(), nil
}

// StateTuples returns the number of tuples currently stored anywhere:
// operator state, materialized windows, and every registered query's view.
func (e *Engine) StateTuples() int {
	n := 0
	for _, q := range e.queries {
		n += q.view.Len()
	}
	for _, pn := range e.order {
		n += pn.Op.StateSize()
	}
	for _, src := range e.sources {
		n += src.Window.Len()
	}
	return n
}

// Touched sums tuple visits across operators and every registered query's
// view.
func (e *Engine) Touched() int64 {
	var n int64
	for _, q := range e.queries {
		n += q.view.Touched()
	}
	for _, pn := range e.order {
		n += pn.Op.Touched()
	}
	return n
}

// advance performs due maintenance and moves the clock to now.
func (e *Engine) advance(now int64) error {
	if now > e.clock {
		e.clock = now
		e.met.clock.Set(now)
	}
	now = e.clock

	// The negative-tuple strategy: materialized windows announce every
	// expiration with an explicit negative tuple, checked at eager cadence.
	// Expiry policy is per source (a registry can mix NT and UPA queries):
	// a source's cell carries the nt flag of the strategy that built it.
	if now-e.lastEager >= e.cfg.EagerInterval {
		traceExp := e.tracer.Wants(obs.EvWindowExpire)
		for _, src := range e.sources {
			if !src.Scratch.(*srcCell).nt {
				continue
			}
			for _, t := range src.Window.ExpireUpTo(now) {
				e.met.windowNegatives.Inc()
				if traceExp {
					e.tracer.Emit(obs.Event{Kind: obs.EvWindowExpire, TS: now, Stream: src.StreamID, Tuple: t.String()})
				}
				if err := e.feedSource(src, t.Negative(now)); err != nil {
					return err
				}
			}
		}
	}

	if now-e.lastEager >= e.cfg.EagerInterval {
		e.lastEager = now
		e.met.eagerPasses.Inc()
		moved := 0
		for _, pn := range e.eagerNodes {
			outs, err := pn.Op.Advance(now)
			if err != nil {
				return err
			}
			moved += len(outs)
			if len(outs) > 0 {
				e.ops[pn].expired.Add(int64(len(outs)))
			}
			if err := e.propagate(pn, outs); err != nil {
				return err
			}
		}
		if moved > 0 && e.tracer.Wants(obs.EvEagerPass) {
			e.tracer.Emit(obs.Event{Kind: obs.EvEagerPass, TS: now, N: moved})
		}
	}
	if now-e.lastLazy >= e.cfg.LazyInterval {
		e.lastLazy = now
		e.met.lazyPasses.Inc()
		moved := 0
		for _, pn := range e.lazyNodes {
			outs, err := pn.Op.Advance(now)
			if err != nil {
				return err
			}
			moved += len(outs)
			if len(outs) > 0 {
				e.ops[pn].expired.Add(int64(len(outs)))
			}
			if err := e.propagate(pn, outs); err != nil {
				return err
			}
		}
		if moved > 0 && e.tracer.Wants(obs.EvLazyPass) {
			e.tracer.Emit(obs.Event{Kind: obs.EvLazyPass, TS: now, N: moved})
		}
		for _, q := range e.queries {
			if expired := q.view.ExpireUpTo(now); expired > 0 {
				e.met.viewExpired.Add(int64(expired))
				if e.tracer.Wants(obs.EvViewExpire) {
					e.tracer.Emit(obs.Event{Kind: obs.EvViewExpire, TS: now, N: expired})
				}
			}
		}
	}
	e.met.watermark.Set(e.Watermark())
	return nil
}

// Watermark returns the low-watermark timestamp: every expiration with
// timestamp at or below it is fully reflected in the result view. It is the
// older of the last eager and last lazy maintenance passes, so it trails
// Clock by at most max(EagerInterval, LazyInterval); Sync raises it to Clock.
func (e *Engine) Watermark() int64 {
	if e.lastEager < e.lastLazy {
		return e.lastEager
	}
	return e.lastLazy
}

// feedSource routes a window-stamped tuple to the source's consumer edges
// (and straight to the views of bare-window queries).
func (e *Engine) feedSource(src *plan.PSource, t tuple.Tuple) error {
	cell := src.Scratch.(*srcCell)
	for _, q := range cell.sinks {
		e.applyResult(q, t)
	}
	for _, ed := range cell.outs {
		if err := e.feed(ed.node, ed.side, t); err != nil {
			return err
		}
	}
	return nil
}

// feed processes t at node's input side and pushes the emissions toward the
// root and into the view. Input polarity is always counted (one atomic add);
// Process wall time is measured only when the engine is timed.
func (e *Engine) feed(node *plan.PNode, side int, t tuple.Tuple) error {
	st := node.Scratch.(*opStats)
	if t.Neg {
		st.inNeg.Inc()
	} else {
		st.inPos.Inc()
	}
	var start int64
	measured := e.timed || e.spanActive
	if measured {
		start = obs.Nanotime()
	}
	outs, err := node.Op.Process(side, t, e.clock)
	if measured {
		d := obs.Nanotime() - start
		if e.timed {
			st.procNanos.Add(d)
			st.lastBatch.Set(d)
			st.maxBatch.SetMax(d)
		}
		if e.spanActive {
			e.tracer.Emit(obs.Event{Kind: obs.EvDeltaSpan, TS: e.clock, Node: st.name, Nanos: d, N: len(outs)})
		}
	}
	if err != nil {
		return err
	}
	return e.propagate(node, outs)
}

// feedSourceBatch routes a run of window-stamped tuples to the source's
// consumer edges (and straight to the views of bare-window queries).
// Operators never retain their input run, so one slice can feed every edge
// in turn.
func (e *Engine) feedSourceBatch(src *plan.PSource, ts []tuple.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	cell := src.Scratch.(*srcCell)
	for _, q := range cell.sinks {
		for _, t := range ts {
			e.applyResult(q, t)
		}
	}
	for _, ed := range cell.outs {
		if err := e.feedBatch(ed.node, ed.side, ts); err != nil {
			return err
		}
	}
	return nil
}

// feedBatch processes a same-side run at node — natively when the operator
// implements BatchProcessor, through the generic fallback loop otherwise —
// and pushes the accumulated emissions toward the root as one run. Input
// polarity counters are batched into two atomic adds; the Emit buffer comes
// from the engine's free list, so steady-state batch execution allocates no
// output slices.
func (e *Engine) feedBatch(node *plan.PNode, side int, in []tuple.Tuple) error {
	st := node.Scratch.(*opStats)
	var pos, neg int64
	for i := range in {
		if in[i].Neg {
			neg++
		} else {
			pos++
		}
	}
	if pos > 0 {
		st.inPos.Add(pos)
	}
	if neg > 0 {
		st.inNeg.Add(neg)
	}
	var start int64
	measured := e.timed || e.spanActive
	if measured {
		start = obs.Nanotime()
	}
	var out *operator.Emit
	if n := len(e.emits); n > 0 {
		out = e.emits[n-1]
		e.emits = e.emits[:n-1]
	} else {
		out = new(operator.Emit)
	}
	err := operator.ProcessBatchInto(node.Op, side, in, e.clock, out)
	if measured {
		d := obs.Nanotime() - start
		if e.timed {
			st.procNanos.Add(d)
			st.lastBatch.Set(d)
			st.maxBatch.SetMax(d)
		}
		if e.spanActive {
			e.tracer.Emit(obs.Event{Kind: obs.EvDeltaSpan, TS: e.clock, Node: st.name, Nanos: d, N: out.Len()})
		}
	}
	if err == nil {
		err = e.propagateBatch(node, out.Tuples())
	}
	out.Reset()
	e.emits = append(e.emits, out)
	return err
}

// propagateBatch forwards a run of emissions originating at node to its
// consumer edges (and into the views of queries rooted here). Relative
// emission order is preserved per consumer, so each operator up every spine
// sees exactly the sequence a standalone engine would deliver; operators
// never retain their input run, so one slice can feed every edge in turn.
func (e *Engine) propagateBatch(node *plan.PNode, outs []tuple.Tuple) error {
	if len(outs) == 0 {
		return nil
	}
	em := node.Scratch.(*opStats)
	var pos, neg int64
	for i := range outs {
		if outs[i].Neg {
			neg++
			em.observeRetraction(outs[i], e.clock)
		} else {
			pos++
		}
	}
	if pos > 0 {
		em.pos.Add(pos)
	}
	if neg > 0 {
		em.neg.Add(neg)
	}
	for _, q := range em.sinks {
		for _, t := range outs {
			e.applyResult(q, t)
		}
	}
	for _, ed := range em.outs {
		if err := e.feedBatch(ed.node, ed.side, outs); err != nil {
			return err
		}
	}
	return nil
}

// propagate forwards emissions originating at node to its consumer edges
// (and into the views of queries rooted here).
func (e *Engine) propagate(node *plan.PNode, outs []tuple.Tuple) error {
	if len(outs) == 0 {
		return nil
	}
	em := node.Scratch.(*opStats)
	for _, t := range outs {
		if t.Neg {
			em.neg.Inc()
			em.observeRetraction(t, e.clock)
		} else {
			em.pos.Inc()
		}
	}
	for _, q := range em.sinks {
		for _, t := range outs {
			e.applyResult(q, t)
		}
	}
	for _, ed := range em.outs {
		for _, t := range outs {
			if err := e.feed(ed.node, ed.side, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyResult folds one output delta into q's view. Engine-wide counters and
// trace events fire per delivery; per-query counters exist only for named
// registry queries (an unnamed single query keeps the legacy series shape).
func (e *Engine) applyResult(q *queryUnit, t tuple.Tuple) {
	if t.Neg {
		e.deltaNeg++
		q.deltaNeg++
		e.met.retracted.Inc()
		if q.retracted != nil {
			q.retracted.Inc()
		}
		if e.tracer.Wants(obs.EvRetract) {
			e.tracer.Emit(obs.Event{Kind: obs.EvRetract, TS: e.clock, Tuple: t.String()})
		}
	} else {
		e.deltaPos++
		q.deltaPos++
		e.met.emitted.Inc()
		if q.emitted != nil {
			q.emitted.Inc()
		}
		if e.tracer.Wants(obs.EvEmit) {
			e.tracer.Emit(obs.Event{Kind: obs.EvEmit, TS: e.clock, Tuple: t.String()})
		}
	}
	if q.onEmit != nil {
		q.onEmit(t)
	}
	q.view.Apply(t)
}

// sampleState records the current stored-tuple total and view size, and
// raises the high-water mark. It runs on the first arrival, every 64th
// arrival, and on Sync (summing every buffer is O(operators), too costly
// per tuple).
func (e *Engine) sampleState() {
	e.met.maxStateTuples.SetMax(int64(e.refreshStateGauges()))
}

// refreshStateGauges recomputes the live state gauges (per-operator state and
// touch counts, total stored tuples, view rows) without raising the
// high-water mark, and returns the stored-tuple total. Restore uses it
// directly: the checkpointed peak is authoritative, and a restore-time sample
// may fall between the original run's sampling points.
func (e *Engine) refreshStateGauges() int {
	views := 0
	for _, q := range e.queries {
		views += q.view.Len()
	}
	n := views
	for _, pn := range e.order {
		st := e.ops[pn]
		st.state.Set(int64(pn.Op.StateSize()))
		st.touched.Set(pn.Op.Touched())
		n += pn.Op.StateSize()
	}
	for _, src := range e.sources {
		n += src.Window.Len()
	}
	e.met.stateTuples.Set(int64(n))
	e.met.viewRows.Set(int64(views))
	return n
}
