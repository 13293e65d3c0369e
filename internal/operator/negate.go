package operator

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Negate is the window negation operator of Section 2.1: with W1 and W2 as
// its inputs and multiplicities v1, v2 of a value v on the negation
// attribute, the answer contains exactly max(v1 − v2, 0) W1-tuples with
// value v (Equation 1).
//
// Negation is the paper's canonical strict non-monotonic operator: a W2
// arrival can force previously reported results out of the answer before
// their windows expire, which the operator announces with negative tuples.
// Conversely, a W2 expiration can bring a live W1 tuple (back) into the
// answer, emitting a positive result whose exp is the W1 tuple's own.
//
// The implementation generalizes the paper's event rules ("append the new
// arrival when v1 > v2"; "delete the oldest on a W2 arrival"; "append the
// youngest on a W2 expiration") into an invariant repaired after every
// event: per value, exactly max(v1−v2, 0) live W1-tuples are marked
// in-answer; members are retracted oldest-first and admitted youngest-first.
// The repair also covers the corner case the event rules leave implicit —
// a W1 tuple that is not in the answer expiring and shrinking the quota.
//
// Per Section 5.4.1 the multiplicity counters support fast (here: hashed)
// lookup; both windows' tuples are tracked with eager expiration calendars.
// Calendar entries retracted early are left in place and skipped when they
// fire, so twins (equal values, different expirations) never confuse the
// schedule.
type Negate struct {
	schema     *tuple.Schema
	keyCols    []int
	rightCols  []int
	w1         map[tuple.Key]*negGroup
	w2         map[tuple.Key][]int64 // live W2 expiration times, per value
	w1idx      statebuf.Buffer
	w2idx      statebuf.Buffer
	w1size     int
	w2size     int // total live W2 multiplicities, maintained incrementally
	clock      int64
	timeExpiry bool
	negOnExp   bool
	// prematureRetractions counts answers killed by negative tuples — the
	// signal that drives the STR storage choice in Section 5.3.2.
	prematureRetractions int64
	touched              int64
	// advSeen/advOrder are the expiration wave's reusable key scratch.
	advSeen  map[tuple.Key]bool
	advOrder []tuple.Key
	// entries/groupFree recycle the per-stored-tuple entry records and the
	// per-value groups through window churn, so steady-state W1 traffic
	// costs one slab allocation per negEntrySlab stored tuples instead of
	// one per tuple.
	entries   negEntryArena
	groupFree []*negGroup
}

type negEntry struct {
	t     tuple.Tuple
	inAns bool
}

// negEntrySlab is how many entry records one arena slab carves.
const negEntrySlab = 256

// negEntryArena hands out negEntry records carved from fixed slabs, with a
// freelist fed by removals. Entries are only ever referenced from their
// group's entries/members slices (emissions copy the tuple by value), so a
// dropped entry can be recycled immediately.
type negEntryArena struct {
	slab []negEntry
	free []*negEntry
}

func (a *negEntryArena) get(t tuple.Tuple) *negEntry {
	if n := len(a.free); n > 0 {
		e := a.free[n-1]
		a.free = a.free[:n-1]
		e.t = t
		return e
	}
	if len(a.slab) == 0 {
		a.slab = make([]negEntry, negEntrySlab)
	}
	e := &a.slab[0]
	a.slab = a.slab[1:]
	e.t = t
	return e
}

func (a *negEntryArena) put(e *negEntry) {
	*e = negEntry{}
	a.free = append(a.free, e)
}

// negGroup tracks one value's W1 tuples plus the subset currently in the
// answer, so the common no-op repair (quota already satisfied) costs O(1)
// and retractions touch only the members — essential when skewed traffic
// concentrates on a hot value whose entry list grows with the window.
type negGroup struct {
	entries []*negEntry
	members []*negEntry // in-answer subset
}

// NegateConfig configures a negation operator.
type NegateConfig struct {
	Left, Right *tuple.Schema
	// LeftCols/RightCols are the negation attribute positions, pairwise.
	LeftCols, RightCols []int
	// Horizon bounds stored tuple lifetimes (max window size of the inputs).
	Horizon int64
	// Partitions sizes the expiration calendars (default 10).
	Partitions int
	// ListCalendars swaps the partitioned expiration calendars for plain
	// lists — the DIRECT baseline, paying sequential scans per expiration.
	ListCalendars bool
	// NoTimeExpiry disables exp-timestamp expiration (negative-tuple
	// strategy: both windows retract explicitly).
	NoTimeExpiry bool
	// NegativeOnExpiry makes the operator emit a negative tuple for every
	// in-answer expiration, not just premature ones — the "negative tuple
	// approach above negation" of Section 5.4.3, which lets the result be
	// stored in a hash table with no timestamp scans at all.
	NegativeOnExpiry bool
}

// NewNegate builds a negation operator. The output schema is the left
// input's schema (results are W1 tuples).
func NewNegate(cfg NegateConfig) (*Negate, error) {
	if len(cfg.LeftCols) == 0 || len(cfg.LeftCols) != len(cfg.RightCols) {
		return nil, fmt.Errorf("negate: attribute columns must be non-empty and pairwise")
	}
	for _, c := range cfg.LeftCols {
		if c < 0 || c >= cfg.Left.Len() {
			return nil, fmt.Errorf("negate: left column %d out of range", c)
		}
	}
	for _, c := range cfg.RightCols {
		if c < 0 || c >= cfg.Right.Len() {
			return nil, fmt.Errorf("negate: right column %d out of range", c)
		}
	}
	parts := cfg.Partitions
	if parts <= 0 {
		parts = statebuf.DefaultPartitions
	}
	calendar := func() statebuf.Buffer {
		if cfg.ListCalendars {
			return statebuf.NewList()
		}
		return statebuf.NewPartitioned(parts, cfg.Horizon, true)
	}
	return &Negate{
		schema:     cfg.Left,
		keyCols:    append([]int(nil), cfg.LeftCols...),
		rightCols:  append([]int(nil), cfg.RightCols...),
		w1:         make(map[tuple.Key]*negGroup),
		w2:         make(map[tuple.Key][]int64),
		w1idx:      calendar(),
		w2idx:      calendar(),
		clock:      -1,
		timeExpiry: !cfg.NoTimeExpiry,
		negOnExp:   cfg.NegativeOnExpiry,
	}, nil
}

// Class implements Operator.
func (n *Negate) Class() core.OpClass { return core.OpNegate }

// Schema implements Operator.
func (n *Negate) Schema() *tuple.Schema { return n.schema }

// PrematureRetractions returns how many results were killed by negative
// tuples so far — frequent premature expiration favours the hash/NT storage
// for the result (Section 5.3.2).
func (n *Negate) PrematureRetractions() int64 { return n.prematureRetractions }

// Process implements Operator.
func (n *Negate) Process(side int, t tuple.Tuple, now int64) ([]tuple.Tuple, error) {
	if side != 0 && side != 1 {
		return nil, badSide("negate", side)
	}
	var out Emit
	adv, err := n.Advance(now)
	if err != nil {
		return nil, err
	}
	out.AppendAll(adv)
	n.processOne(side, t, now, &out)
	return out.ts, nil
}

// ProcessBatch implements BatchProcessor: expiration/repair of both calendars
// runs once per run, then the per-tuple event rules append into the shared
// buffer.
func (n *Negate) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 && side != 1 {
		return badSide("negate", side)
	}
	adv, err := n.Advance(now)
	if err != nil {
		return err
	}
	out.AppendAll(adv)
	for i := range in {
		n.processOne(side, in[i], now, out)
	}
	return nil
}

// processOne is the shared per-tuple body of Process and ProcessBatch; the
// caller has already run Advance for now.
func (n *Negate) processOne(side int, t tuple.Tuple, now int64, out *Emit) {
	cols := n.keyCols
	if side == 1 {
		cols = n.rightCols
	}
	k := t.Key(cols)
	switch {
	case side == 0 && !t.Neg:
		g := n.w1[k]
		if g == nil {
			if l := len(n.groupFree); l > 0 {
				g = n.groupFree[l-1]
				n.groupFree = n.groupFree[:l-1]
			} else {
				g = &negGroup{}
			}
			n.w1[k] = g
		}
		g.entries = append(g.entries, n.entries.get(t))
		n.w1size++
		if n.timeExpiry {
			n.w1idx.Insert(t)
		}
		n.repairGroup(g, len(n.w2[k]), now, out)
	case side == 0 && t.Neg:
		n.retractW1(k, t, now, out)
	case side == 1 && !t.Neg:
		exps := append(n.w2[k], t.Exp)
		n.w2[k] = exps
		n.w2size++
		if n.timeExpiry {
			n.w2idx.Insert(t)
		}
		n.repairGroup(n.w1[k], len(exps), now, out)
	default: // side == 1, negative
		if n.removeW2(k, t.Exp) {
			// The calendar entry stays and is skipped when it fires.
			n.repairGroup(n.w1[k], len(n.w2[k]), now, out)
		}
	}
}

// removeW2 drops one live W2 multiplicity for k, preferring the exact
// expiration time the retraction names (negatives carry the original Exp).
func (n *Negate) removeW2(k tuple.Key, exp int64) bool {
	exps := n.w2[k]
	if len(exps) == 0 {
		return false
	}
	at := -1
	for i, e := range exps {
		n.touched++
		if e == exp {
			at = i
			break
		}
	}
	if at < 0 {
		at = 0 // retraction of an unknown twin: drop any copy
	}
	exps = append(exps[:at], exps[at+1:]...)
	n.w2size--
	if len(exps) == 0 {
		delete(n.w2, k)
	} else {
		n.w2[k] = exps
	}
	return true
}

// retractW1 handles a negative tuple on the left input: one matching stored
// tuple is removed, preferring one that is not currently in the answer (so
// no retraction needs to propagate); the quota repair handles the rest. The
// calendar entry is left to fire as a no-op.
func (n *Negate) retractW1(k tuple.Key, t tuple.Tuple, now int64, out *Emit) {
	g := n.w1[k]
	if g == nil {
		return
	}
	entries := g.entries
	// Prefer exact expiration matches, then entries outside the answer.
	score := func(e *negEntry) int {
		s := 0
		if e.t.Exp == t.Exp {
			s += 2
		}
		if !e.inAns {
			s++
		}
		return s
	}
	victim := -1
	for i, e := range entries {
		n.touched++
		if !e.t.SameVals(t) {
			continue
		}
		if victim < 0 || score(e) > score(entries[victim]) {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	e := entries[victim]
	if e.inAns {
		out.Append(e.t.Negative(now))
		n.prematureRetractions++
	}
	n.dropW1(k, g, victim)
	n.repair(k, now, out)
}

func (n *Negate) dropW1(k tuple.Key, g *negGroup, i int) {
	e := g.entries[i]
	if e.inAns {
		g.dropMember(e)
	}
	g.entries = append(g.entries[:i], g.entries[i+1:]...)
	n.entries.put(e)
	if len(g.entries) == 0 {
		delete(n.w1, k)
		g.members = g.members[:0]
		n.groupFree = append(n.groupFree, g)
	}
	n.w1size--
}

func (g *negGroup) dropMember(e *negEntry) {
	for i, m := range g.members {
		if m == e {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return
		}
	}
}

// repair enforces the Equation 1 invariant for one value: exactly
// max(v1 − v2, 0) live W1-tuples in the answer.
func (n *Negate) repair(k tuple.Key, now int64, out *Emit) {
	n.repairGroup(n.w1[k], len(n.w2[k]), now, out)
}

// repairGroup is repair with the group and W2 multiplicity already resolved —
// the per-arrival event rules hold both from their own state touch, so the
// hot path never re-hashes the key for a second (and third) map probe.
func (n *Negate) repairGroup(g *negGroup, w2n int, now int64, out *Emit) {
	if g == nil {
		return
	}
	entries := g.entries
	target := len(entries) - w2n
	if target < 0 {
		target = 0
	}
	cur := len(g.members)
	if cur == target {
		return // quota already satisfied: O(1) fast path
	}
	// Too many: retract oldest members first (the paper deletes the oldest
	// on a W2 arrival). Only the member subset is touched.
	for cur > target {
		oldest := 0
		for i := 1; i < len(g.members); i++ {
			n.touched++
			if g.members[i].t.TS < g.members[oldest].t.TS {
				oldest = i
			}
		}
		e := g.members[oldest]
		g.members = append(g.members[:oldest], g.members[oldest+1:]...)
		e.inAns = false
		out.Append(e.t.Negative(now))
		n.prematureRetractions++
		cur--
	}
	// Too few: admit youngest non-members first (the paper appends the new
	// arrival / the youngest on a W2 expiration). Entries sit in arrival
	// order, so scanning from the tail finds the youngest quickly.
	for i := len(entries) - 1; cur < target && i >= 0; i-- {
		n.touched++
		e := entries[i]
		if e.inAns {
			continue
		}
		e.inAns = true
		g.members = append(g.members, e)
		r := e.t
		r.TS = now
		out.Append(r)
		cur++
	}
}

// Advance expires both inputs eagerly: W1 expirations shrink quotas (an
// in-answer copy leaves the result via its own exp downstream); W2
// expirations grow quotas and may re-admit live W1 tuples.
func (n *Negate) Advance(now int64) ([]tuple.Tuple, error) {
	if !n.timeExpiry || now <= n.clock {
		return nil, nil
	}
	n.clock = now
	var out Emit
	if n.advSeen == nil {
		n.advSeen = make(map[tuple.Key]bool)
	}
	clear(n.advSeen)
	n.advOrder = n.advOrder[:0]
	note := func(k tuple.Key) {
		if !n.advSeen[k] {
			n.advSeen[k] = true
			n.advOrder = append(n.advOrder, k)
		}
	}

	for _, t := range n.w1idx.ExpireUpTo(now) {
		k := t.Key(n.keyCols)
		g := n.w1[k]
		if g == nil {
			continue
		}
		entries := g.entries
		// Remove one entry matching the fired tuple exactly; prefer one in
		// the answer (it leaves the result via its own exp — no retraction,
		// unless NegativeOnExpiry asks for one).
		victim := -1
		for i, e := range entries {
			n.touched++
			if !e.t.SameVals(t) || e.t.Exp != t.Exp {
				continue
			}
			if victim < 0 || (e.inAns && !entries[victim].inAns) {
				victim = i
			}
			if victim == i && e.inAns {
				break
			}
		}
		if victim >= 0 {
			if n.negOnExp && entries[victim].inAns {
				out.Append(entries[victim].t.Negative(now))
			}
			n.dropW1(k, g, victim)
			note(k)
		}
	}
	for _, t := range n.w2idx.ExpireUpTo(now) {
		k := t.Key(n.rightCols)
		exps := n.w2[k]
		for i, e := range exps {
			n.touched++
			if e == t.Exp {
				exps = append(exps[:i], exps[i+1:]...)
				n.w2size--
				if len(exps) == 0 {
					delete(n.w2, k)
				} else {
					n.w2[k] = exps
				}
				note(k)
				break
			}
		}
	}
	order := n.advOrder
	sort.Slice(order, func(i, j int) bool { return order[i].Compare(order[j]) < 0 })
	for _, k := range order {
		n.repair(k, now, &out)
	}
	return out.ts, nil
}

// StateSize implements Operator: live entries of both windows plus the
// expiration calendars tracking them (which can exceed the live counts while
// retracted entries wait to fire as no-ops) — consistent with the other
// stateful operators' expiry-index accounting. The W2 count is maintained
// incrementally; the engine samples StateSize on a metrics cadence, so it
// must stay O(1) rather than iterate the multiplicity map.
func (n *Negate) StateSize() int {
	return n.w1size + n.w2size + n.w1idx.Len() + n.w2idx.Len()
}

// Touched implements Operator.
func (n *Negate) Touched() int64 { return n.touched + n.w1idx.Touched() + n.w2idx.Touched() }
