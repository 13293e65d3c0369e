package operator

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// GroupBy incrementally maintains aggregates per group (Section 2.1). Each
// arrival updates its group and emits an updated result tuple for that group;
// each expiration from the (eagerly maintained) input state decrements the
// group and likewise emits an updated result. A newly emitted result is
// understood to replace the previously reported result for the same group —
// which is why group-by output is always weak non-monotonic (Rule 4 of
// Section 5.2) even over strict inputs: retractions arriving on the input are
// absorbed into replacement results rather than forwarded.
//
// When the last live tuple of a group leaves, the group vanishes from the
// answer; the operator signals this with a negative result tuple for the
// group's last reported row. This keeps Definition 1 exact while remaining
// predictable (it happens precisely at a known exp timestamp).
//
// Output schema: the group-by columns followed by one column per aggregate.
// Result tuples never expire by timestamp (Exp = NeverExpires) — their
// lifetime ends on replacement, so the result view keys them by group.
type GroupBy struct {
	schema     *tuple.Schema
	groupCols  []int
	specs      []AggSpec
	input      statebuf.Buffer // nil when the input never expires
	groups     map[tuple.Key]*groupState
	clock      int64
	timeExpiry bool
	// arena carves the operator's retained value slices — group-key copies
	// and emitted result rows — from shared slabs, so neither a new group nor
	// a group update takes an allocation of its own. A slab is freed once no
	// row carved from it is reachable; each live group holds its key and at
	// most one current result row (a later row replaces it in the view), so
	// the slabs kept alive are bounded by the live groups.
	arena tuple.ValueArena
	// advSeen/advOrder are the expiration wave's reusable scratch: the set and
	// deterministic order of groups touched by one wave (the PR 2 eviction-
	// scratch pattern, so steady-state waves allocate nothing).
	advSeen  map[tuple.Key]bool
	advOrder []tuple.Key
}

type groupState struct {
	keyVals []tuple.Value
	aggs    []*aggState
	last    tuple.Tuple // last emitted result row
}

// GroupByConfig configures a grouped aggregation.
type GroupByConfig struct {
	Input *tuple.Schema
	// GroupCols are the grouping column positions; empty means a single
	// global group (plain aggregation).
	GroupCols []int
	// Aggs are the aggregates to maintain (at least one).
	Aggs []AggSpec
	// InputBuf chooses the input state structure; it is maintained eagerly.
	InputBuf statebuf.Config
	// NoTimeExpiry disables exp-timestamp expiration; the negative-tuple
	// strategy sets it and drives all retirement through retractions.
	NoTimeExpiry bool
	// NoInputStore skips input buffering entirely — for unbounded
	// (monotonic) inputs where tuples never expire and never retract, the
	// Section 3.1 running-aggregate case; only per-group state remains.
	NoInputStore bool
}

// NewGroupBy builds a group-by operator.
func NewGroupBy(cfg GroupByConfig) (*GroupBy, error) {
	if len(cfg.Aggs) == 0 {
		return nil, fmt.Errorf("groupby: at least one aggregate required")
	}
	cols := make([]tuple.Column, 0, len(cfg.GroupCols)+len(cfg.Aggs))
	for _, c := range cfg.GroupCols {
		if c < 0 || c >= cfg.Input.Len() {
			return nil, fmt.Errorf("groupby: group column %d out of range", c)
		}
		cols = append(cols, cfg.Input.Col(c))
	}
	for i, a := range cfg.Aggs {
		if a.Kind != Count && (a.Col < 0 || a.Col >= cfg.Input.Len()) {
			return nil, fmt.Errorf("groupby: aggregate column %d out of range", a.Col)
		}
		kind := tuple.KindFloat
		switch a.Kind {
		case Count:
			kind = tuple.KindInt
		case Min, Max:
			if a.Col >= 0 && a.Col < cfg.Input.Len() {
				kind = cfg.Input.Col(a.Col).Kind
			}
		}
		cols = append(cols, tuple.Column{Name: fmt.Sprintf("agg%d_%s", i, a.Kind), Kind: kind})
	}
	schema, err := tuple.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("groupby: %w", err)
	}
	if cfg.InputBuf.Kind == statebuf.KindHash {
		cfg.InputBuf.KeyCols = cfg.GroupCols
	}
	g := &GroupBy{
		schema:     schema,
		groupCols:  append([]int(nil), cfg.GroupCols...),
		specs:      append([]AggSpec(nil), cfg.Aggs...),
		groups:     make(map[tuple.Key]*groupState),
		clock:      -1,
		timeExpiry: !cfg.NoTimeExpiry && !cfg.NoInputStore,
	}
	if !cfg.NoInputStore {
		g.input = statebuf.New(cfg.InputBuf)
	}
	return g, nil
}

// Class implements Operator.
func (g *GroupBy) Class() core.OpClass { return core.OpGroupBy }

// Schema implements Operator.
func (g *GroupBy) Schema() *tuple.Schema { return g.schema }

// Process implements Operator.
func (g *GroupBy) Process(side int, t tuple.Tuple, now int64) ([]tuple.Tuple, error) {
	if side != 0 {
		return nil, badSide("groupby", side)
	}
	var out Emit
	adv, err := g.Advance(now)
	if err != nil {
		return nil, err
	}
	out.AppendAll(adv)
	g.processOne(t, now, &out)
	return out.ts, nil
}

// ProcessBatch implements BatchProcessor: input expiration runs once per run,
// then each arrival updates its group and appends the replacement row into the
// shared buffer.
func (g *GroupBy) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("groupby", side)
	}
	adv, err := g.Advance(now)
	if err != nil {
		return err
	}
	out.AppendAll(adv)
	for i := range in {
		g.processOne(in[i], now, out)
	}
	return nil
}

// processOne is the shared per-tuple body of Process and ProcessBatch; the
// caller has already run Advance for now.
func (g *GroupBy) processOne(t tuple.Tuple, now int64, out *Emit) {
	if t.Neg {
		if g.input == nil || !g.input.Remove(t) {
			return // retraction of an already-expired tuple
		}
		g.applyRemoval(t, now, out)
		return
	}
	if g.input != nil {
		g.input.Insert(t)
	}
	k := t.Key(g.groupCols)
	gs, ok := g.groups[k]
	if !ok {
		gs = &groupState{keyVals: g.keyValsOf(t)}
		for _, spec := range g.specs {
			gs.aggs = append(gs.aggs, newAggState(spec))
		}
		g.groups[k] = gs
	}
	for _, a := range gs.aggs {
		a.add(t)
	}
	out.Append(g.emit(k, gs, now))
}

// keyValsOf copies the group columns into a retained slice carved from the
// operator's arena.
func (g *GroupBy) keyValsOf(t tuple.Tuple) []tuple.Value {
	vals := g.arena.Alloc(len(g.groupCols))
	for i, c := range g.groupCols {
		vals[i] = t.Vals[c]
	}
	return vals
}

// emit builds and records the replacement result row for a group, its
// values carved from the operator's arena.
func (g *GroupBy) emit(k tuple.Key, gs *groupState, now int64) tuple.Tuple {
	vals := g.arena.Alloc(len(gs.keyVals) + len(gs.aggs))
	n := copy(vals, gs.keyVals)
	for i, a := range gs.aggs {
		vals[n+i] = a.value()
	}
	r := tuple.Tuple{TS: now, Exp: tuple.NeverExpires, Vals: vals}
	gs.last = r
	return r
}

// applyRemoval decrements a group after an input tuple leaves and appends the
// updated (or retracted) group row.
func (g *GroupBy) applyRemoval(t tuple.Tuple, now int64, out *Emit) {
	k := t.Key(g.groupCols)
	gs, ok := g.groups[k]
	if !ok {
		return
	}
	for _, a := range gs.aggs {
		a.remove(t)
	}
	if gs.aggs[0].n == 0 {
		delete(g.groups, k)
		out.Append(gs.last.Negative(now))
		return
	}
	out.Append(g.emit(k, gs, now))
}

// Advance expires input state eagerly — aggregate values must stay correct
// even when no new tuples arrive (Section 2.3) — emitting an updated result
// per affected group, in deterministic group order.
func (g *GroupBy) Advance(now int64) ([]tuple.Tuple, error) {
	if !g.timeExpiry || now <= g.clock {
		return nil, nil
	}
	g.clock = now
	expired := g.input.ExpireUpTo(now)
	if len(expired) == 0 {
		return nil, nil
	}
	// Apply all removals first (aggregate subtraction commutes), then emit one
	// replacement row per affected group in deterministic order. The seen-set
	// and order slice are reusable operator scratch, so steady-state waves
	// allocate only their emissions.
	if g.advSeen == nil {
		g.advSeen = make(map[tuple.Key]bool)
	}
	clear(g.advSeen)
	g.advOrder = g.advOrder[:0]
	for _, t := range expired {
		k := t.Key(g.groupCols)
		gs, ok := g.groups[k]
		if !ok {
			continue
		}
		if !g.advSeen[k] {
			g.advSeen[k] = true
			g.advOrder = append(g.advOrder, k)
		}
		for _, a := range gs.aggs {
			a.remove(t)
		}
	}
	order := g.advOrder
	sort.Slice(order, func(i, j int) bool { return order[i].Compare(order[j]) < 0 })
	var out []tuple.Tuple
	for _, k := range order {
		gs, ok := g.groups[k]
		if !ok {
			continue
		}
		if gs.aggs[0].n == 0 {
			delete(g.groups, k)
			out = append(out, gs.last.Negative(now))
		} else {
			out = append(out, g.emit(k, gs, now))
		}
	}
	return out, nil
}

// StateSize implements Operator: stored input plus one row per group.
func (g *GroupBy) StateSize() int {
	n := len(g.groups)
	if g.input != nil {
		n += g.input.Len()
	}
	return n
}

// Touched implements Operator.
func (g *GroupBy) Touched() int64 {
	if g.input == nil {
		return 0
	}
	return g.input.Touched()
}

// GroupCols returns the grouping column positions in the output schema
// (always the leading columns) — the result view keys replacements on them.
func (g *GroupBy) GroupCols() []int {
	cols := make([]int, len(g.groupCols))
	for i := range cols {
		cols[i] = i
	}
	return cols
}
