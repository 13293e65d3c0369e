package operator

// This file implements checkpoint.Snapshotter for every operator. Each
// operator serializes only its dynamic state — configuration (schemas, key
// columns, aggregate specs, buffer choices) is rebuilt from the plan, and the
// executor's restore fingerprint guarantees the plan matches before any
// LoadState runs. Map keys are serialized explicitly through the Key codec so
// a decoded key indexes the same bucket it was saved from, even for entries
// that retain no tuple to recompute it from (e.g. Negate's W2 counters).

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Compile-time checks that every operator participates in checkpoints.
var (
	_ checkpoint.Snapshotter = (*Select)(nil)
	_ checkpoint.Snapshotter = (*Project)(nil)
	_ checkpoint.Snapshotter = (*Union)(nil)
	_ checkpoint.Snapshotter = (*Join)(nil)
	_ checkpoint.Snapshotter = (*Distinct)(nil)
	_ checkpoint.Snapshotter = (*DistinctDelta)(nil)
	_ checkpoint.Snapshotter = (*GroupBy)(nil)
	_ checkpoint.Snapshotter = (*Negate)(nil)
	_ checkpoint.Snapshotter = (*Intersect)(nil)
	_ checkpoint.Snapshotter = (*NRRJoin)(nil)
	_ checkpoint.Snapshotter = (*RelJoin)(nil)
)

// saveBuf / loadBuf delegate to a state buffer's own section. Every statebuf
// implementation is a Snapshotter; the assertion guards future buffer kinds.
func saveBuf(enc *checkpoint.Encoder, b statebuf.Buffer) error {
	s, ok := b.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("operator: state buffer %T cannot snapshot", b)
	}
	return s.SaveState(enc)
}

func loadBuf(dec *checkpoint.Decoder, b statebuf.Buffer) error {
	s, ok := b.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("operator: state buffer %T cannot snapshot", b)
	}
	return s.LoadState(dec)
}

// saveKeyTuples / loadKeyTuples serialize a key → tuple map (map order is
// unspecified; equality of the rebuilt map is what matters).
func saveKeyTuples(enc *checkpoint.Encoder, m map[tuple.Key]tuple.Tuple) {
	enc.Uvarint(uint64(len(m)))
	for k, t := range m {
		enc.Key(k)
		enc.Tuple(t)
	}
}

func loadKeyTuples(dec *checkpoint.Decoder) map[tuple.Key]tuple.Tuple {
	m := make(map[tuple.Key]tuple.Tuple)
	n := dec.Count()
	for i := 0; i < n && dec.Err() == nil; i++ {
		k := dec.Key()
		m[k] = dec.Tuple()
	}
	return m
}

// SaveState implements checkpoint.Snapshotter (stateless: empty section).
func (s *Select) SaveState(enc *checkpoint.Encoder) error { return enc.Err() }

// LoadState implements checkpoint.Snapshotter.
func (s *Select) LoadState(dec *checkpoint.Decoder) error { return dec.Err() }

// SaveState implements checkpoint.Snapshotter (stateless: empty section).
func (p *Project) SaveState(enc *checkpoint.Encoder) error { return enc.Err() }

// LoadState implements checkpoint.Snapshotter.
func (p *Project) LoadState(dec *checkpoint.Decoder) error { return dec.Err() }

// SaveState implements checkpoint.Snapshotter: only the order-assertion
// cursor.
func (u *Union) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(u.lastTS)
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (u *Union) LoadState(dec *checkpoint.Decoder) error {
	u.lastTS = dec.Varint()
	return dec.Err()
}

// SaveState implements checkpoint.Snapshotter: clock, then both side buffers.
func (j *Join) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(j.clock)
	if err := saveBuf(enc, j.state[0]); err != nil {
		return err
	}
	return saveBuf(enc, j.state[1])
}

// LoadState implements checkpoint.Snapshotter.
func (j *Join) LoadState(dec *checkpoint.Decoder) error {
	j.clock = dec.Varint()
	if err := loadBuf(dec, j.state[0]); err != nil {
		return err
	}
	return loadBuf(dec, j.state[1])
}

// SaveState implements checkpoint.Snapshotter: clocks and counters, the
// representative map, then the input and expiration-index buffers.
func (d *Distinct) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(d.clock)
	enc.Varint(d.lastTrim)
	enc.Varint(d.touched)
	saveKeyTuples(enc, d.reps)
	if err := saveBuf(enc, d.input); err != nil {
		return err
	}
	return saveBuf(enc, d.expIdx)
}

// LoadState implements checkpoint.Snapshotter.
func (d *Distinct) LoadState(dec *checkpoint.Decoder) error {
	d.clock = dec.Varint()
	d.lastTrim = dec.Varint()
	d.touched = dec.Varint()
	d.reps = loadKeyTuples(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	if err := loadBuf(dec, d.input); err != nil {
		return err
	}
	return loadBuf(dec, d.expIdx)
}

// SaveState implements checkpoint.Snapshotter: clock, representative and
// auxiliary maps, then the expiration calendar.
func (d *DistinctDelta) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(d.clock)
	saveKeyTuples(enc, d.reps)
	saveKeyTuples(enc, d.aux)
	return saveBuf(enc, d.expIdx)
}

// LoadState implements checkpoint.Snapshotter.
func (d *DistinctDelta) LoadState(dec *checkpoint.Decoder) error {
	d.clock = dec.Varint()
	d.reps = loadKeyTuples(dec)
	d.aux = loadKeyTuples(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	return loadBuf(dec, d.expIdx)
}

// saveAgg / loadAgg serialize one per-group aggregate cell. The spec is
// plan-provided; only the running values travel. MIN/MAX multisets keep their
// live value multiplicities.
func saveAgg(enc *checkpoint.Encoder, a *aggState) {
	enc.Varint(a.n)
	enc.Float(a.sum)
	enc.Bool(a.multi != nil)
	if a.multi != nil {
		enc.Uvarint(uint64(len(a.multi)))
		for v, c := range a.multi {
			enc.Value(v)
			enc.Varint(int64(c))
		}
	}
}

func loadAgg(dec *checkpoint.Decoder, spec AggSpec) (*aggState, error) {
	a := newAggState(spec)
	a.n = dec.Varint()
	a.sum = dec.Float()
	hasMulti := dec.Bool()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if hasMulti != (a.multi != nil) {
		return nil, fmt.Errorf("%w: aggregate multiset flag disagrees with spec %v", checkpoint.ErrCorrupt, spec)
	}
	if hasMulti {
		n := dec.Count()
		for i := 0; i < n && dec.Err() == nil; i++ {
			v := dec.Value()
			a.multi[v] = int(dec.Varint())
		}
	}
	return a, dec.Err()
}

// SaveState implements checkpoint.Snapshotter: clock, the optional input
// buffer, then every group (key, key values, last emitted row, one aggregate
// cell per spec — the spec count is plan-known and not serialized).
func (g *GroupBy) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(g.clock)
	enc.Bool(g.input != nil)
	if g.input != nil {
		if err := saveBuf(enc, g.input); err != nil {
			return err
		}
	}
	enc.Uvarint(uint64(len(g.groups)))
	for k, gs := range g.groups {
		enc.Key(k)
		enc.Uvarint(uint64(len(gs.keyVals)))
		for _, v := range gs.keyVals {
			enc.Value(v)
		}
		enc.Tuple(gs.last)
		for _, a := range gs.aggs {
			saveAgg(enc, a)
		}
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (g *GroupBy) LoadState(dec *checkpoint.Decoder) error {
	g.clock = dec.Varint()
	hasInput := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasInput != (g.input != nil) {
		return fmt.Errorf("%w: groupby input-store flag disagrees with plan", checkpoint.ErrCorrupt)
	}
	if g.input != nil {
		if err := loadBuf(dec, g.input); err != nil {
			return err
		}
	}
	g.groups = make(map[tuple.Key]*groupState)
	n := dec.Count()
	for i := 0; i < n && dec.Err() == nil; i++ {
		k := dec.Key()
		gs := &groupState{}
		nv := dec.Count()
		for j := 0; j < nv && dec.Err() == nil; j++ {
			gs.keyVals = append(gs.keyVals, dec.Value())
		}
		gs.last = dec.Tuple()
		for _, spec := range g.specs {
			a, err := loadAgg(dec, spec)
			if err != nil {
				return err
			}
			gs.aggs = append(gs.aggs, a)
		}
		g.groups[k] = gs
	}
	return dec.Err()
}

// SaveState implements checkpoint.Snapshotter: clock and counters, the W1
// groups (entries with their in-answer flags, plus member indexes into the
// entry list so the answer subset relinks exactly), the W2 multiplicity
// lists, then both expiration calendars.
func (n *Negate) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(n.clock)
	enc.Varint(int64(n.w1size))
	enc.Varint(n.prematureRetractions)
	enc.Varint(n.touched)
	enc.Uvarint(uint64(len(n.w1)))
	for k, g := range n.w1 {
		enc.Key(k)
		idx := make(map[*negEntry]int, len(g.entries))
		enc.Uvarint(uint64(len(g.entries)))
		for i, e := range g.entries {
			idx[e] = i
			enc.Tuple(e.t)
			enc.Bool(e.inAns)
		}
		enc.Uvarint(uint64(len(g.members)))
		for _, m := range g.members {
			enc.Uvarint(uint64(idx[m]))
		}
	}
	enc.Uvarint(uint64(len(n.w2)))
	for k, exps := range n.w2 {
		enc.Key(k)
		enc.Uvarint(uint64(len(exps)))
		for _, e := range exps {
			enc.Varint(e)
		}
	}
	if err := saveBuf(enc, n.w1idx); err != nil {
		return err
	}
	return saveBuf(enc, n.w2idx)
}

// LoadState implements checkpoint.Snapshotter.
func (n *Negate) LoadState(dec *checkpoint.Decoder) error {
	n.clock = dec.Varint()
	n.w1size = int(dec.Varint())
	n.prematureRetractions = dec.Varint()
	n.touched = dec.Varint()
	n.w1 = make(map[tuple.Key]*negGroup)
	ng := dec.Count()
	for i := 0; i < ng && dec.Err() == nil; i++ {
		k := dec.Key()
		g := &negGroup{}
		ne := dec.Count()
		for j := 0; j < ne && dec.Err() == nil; j++ {
			g.entries = append(g.entries, &negEntry{t: dec.Tuple(), inAns: dec.Bool()})
		}
		nm := dec.Count()
		for j := 0; j < nm && dec.Err() == nil; j++ {
			at := int(dec.Uvarint())
			if dec.Err() != nil {
				break
			}
			if at < 0 || at >= len(g.entries) {
				return fmt.Errorf("%w: negate member index %d out of range", checkpoint.ErrCorrupt, at)
			}
			g.members = append(g.members, g.entries[at])
		}
		n.w1[k] = g
	}
	n.w2 = make(map[tuple.Key][]int64)
	n.w2size = 0
	nw := dec.Count()
	for i := 0; i < nw && dec.Err() == nil; i++ {
		k := dec.Key()
		ne := dec.Count()
		var exps []int64
		for j := 0; j < ne && dec.Err() == nil; j++ {
			exps = append(exps, dec.Varint())
		}
		n.w2[k] = exps
		n.w2size += len(exps)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if err := loadBuf(dec, n.w1idx); err != nil {
		return err
	}
	return loadBuf(dec, n.w2idx)
}

// SaveState implements checkpoint.Snapshotter: clock and counters, both
// sides' entry maps (entries numbered globally in write order), the partner
// links as id pairs written once each, then both expiration calendars.
func (x *Intersect) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(x.clock)
	enc.Varint(int64(x.sizes[0]))
	enc.Varint(int64(x.sizes[1]))
	enc.Varint(x.touched)
	ids := make(map[*isectEntry]int)
	var flat []*isectEntry
	for side := 0; side < 2; side++ {
		m := x.sides[side]
		enc.Uvarint(uint64(len(m)))
		for k, entries := range m {
			enc.Key(k)
			enc.Uvarint(uint64(len(entries)))
			for _, e := range entries {
				ids[e] = len(flat)
				flat = append(flat, e)
				enc.Tuple(e.t)
			}
		}
	}
	var pairs [][2]int
	for _, e := range flat {
		if e.partner != nil && ids[e] < ids[e.partner] {
			pairs = append(pairs, [2]int{ids[e], ids[e.partner]})
		}
	}
	enc.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		enc.Uvarint(uint64(p[0]))
		enc.Uvarint(uint64(p[1]))
	}
	if err := saveBuf(enc, x.expIdx[0]); err != nil {
		return err
	}
	return saveBuf(enc, x.expIdx[1])
}

// LoadState implements checkpoint.Snapshotter.
func (x *Intersect) LoadState(dec *checkpoint.Decoder) error {
	x.clock = dec.Varint()
	x.sizes[0] = int(dec.Varint())
	x.sizes[1] = int(dec.Varint())
	x.touched = dec.Varint()
	var flat []*isectEntry
	for side := 0; side < 2; side++ {
		x.sides[side] = make(map[tuple.Key][]*isectEntry)
		nk := dec.Count()
		for i := 0; i < nk && dec.Err() == nil; i++ {
			k := dec.Key()
			ne := dec.Count()
			var entries []*isectEntry
			for j := 0; j < ne && dec.Err() == nil; j++ {
				e := &isectEntry{t: dec.Tuple(), side: side}
				entries = append(entries, e)
				flat = append(flat, e)
			}
			x.sides[side][k] = entries
		}
	}
	np := dec.Count()
	for i := 0; i < np && dec.Err() == nil; i++ {
		a := int(dec.Uvarint())
		b := int(dec.Uvarint())
		if dec.Err() != nil {
			break
		}
		if a < 0 || a >= len(flat) || b < 0 || b >= len(flat) || a == b {
			return fmt.Errorf("%w: intersect partner indexes (%d,%d) out of range", checkpoint.ErrCorrupt, a, b)
		}
		flat[a].partner, flat[b].partner = flat[b], flat[a]
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if err := loadBuf(dec, x.expIdx[0]); err != nil {
		return err
	}
	return loadBuf(dec, x.expIdx[1])
}

// SaveState implements checkpoint.Snapshotter: counters, then the NT-mode
// retraction log when the plan enabled it.
func (j *NRRJoin) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(int64(j.size))
	enc.Varint(j.touched)
	enc.Bool(j.emitted != nil)
	if j.emitted != nil {
		enc.Uvarint(uint64(len(j.emitted)))
		for k, recs := range j.emitted {
			enc.Key(k)
			enc.Uvarint(uint64(len(recs)))
			for _, r := range recs {
				enc.Varint(r.exp)
				enc.Tuples(r.results)
			}
		}
	}
	return enc.Err()
}

// LoadState implements checkpoint.Snapshotter.
func (j *NRRJoin) LoadState(dec *checkpoint.Decoder) error {
	j.size = int(dec.Varint())
	j.touched = dec.Varint()
	hasLog := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasLog != (j.emitted != nil) {
		return fmt.Errorf("%w: nrr-join retraction-log flag disagrees with plan", checkpoint.ErrCorrupt)
	}
	if hasLog {
		j.emitted = make(map[tuple.Key][]emitRecord)
		nk := dec.Count()
		for i := 0; i < nk && dec.Err() == nil; i++ {
			k := dec.Key()
			nr := dec.Count()
			var recs []emitRecord
			for r := 0; r < nr && dec.Err() == nil; r++ {
				recs = append(recs, emitRecord{exp: dec.Varint(), results: dec.Tuples()})
			}
			j.emitted[k] = recs
		}
	}
	return dec.Err()
}

// SaveState implements checkpoint.Snapshotter: clock and counter, then the
// stored window side (the table itself is serialized once, engine-wide).
func (j *RelJoin) SaveState(enc *checkpoint.Encoder) error {
	enc.Varint(j.clock)
	enc.Varint(j.touched)
	return saveBuf(enc, j.state)
}

// LoadState implements checkpoint.Snapshotter.
func (j *RelJoin) LoadState(dec *checkpoint.Decoder) error {
	j.clock = dec.Varint()
	j.touched = dec.Varint()
	return loadBuf(dec, j.state)
}
