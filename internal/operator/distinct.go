package operator

import (
	"repro/internal/core"
	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// Distinct is the duplicate-elimination operator from the literature
// (Section 2.1): it stores both its input and its current output. At all
// times the output contains exactly one tuple per distinct value present in
// the live input. When an output representative expires, the input buffer is
// scanned for the youngest live tuple with the same value, which becomes the
// new representative and is appended to the output stream (Figure 2).
//
// The state structures are injected by the physical planner: a hash-keyed
// input under the negative-tuple strategy (retractions find their tuple
// quickly; TimeExpiry is off because windows retract explicitly), plain
// lists under DIRECT (representative expiration degenerates to sequential
// scans), and calendar indexes under UPA.
type Distinct struct {
	schema *tuple.Schema
	input  statebuf.Buffer
	reps   map[tuple.Key]tuple.Tuple
	// expIdx schedules representative expirations.
	expIdx     statebuf.Buffer
	allCols    []int
	clock      int64
	timeExpiry bool
	// trimEvery throttles lazy input-buffer trimming (Section 2.1: "the
	// input buffer can be maintained lazily"); replacement probes skip
	// expired tuples regardless.
	trimEvery int64
	lastTrim  int64
	touched   int64
}

// DistinctConfig configures the literature duplicate-elimination operator.
type DistinctConfig struct {
	Schema *tuple.Schema
	// InputBuf stores the input (maintained lazily, probed on replacement).
	InputBuf statebuf.Config
	// RepIdx schedules representative expirations (eager).
	RepIdx statebuf.Config
	// TrimEvery throttles lazy input trimming, in time units (default:
	// every 20th of the rep calendar's horizon, mirroring the Section 6.1
	// lazy interval; minimum 1).
	TrimEvery int64
	// TimeExpiry enables expiration by exp timestamps; the negative-tuple
	// strategy turns it off and drives all retirement through retractions.
	TimeExpiry bool
}

// NewDistinct builds the literature duplicate-elimination operator.
func NewDistinct(cfg DistinctConfig) *Distinct {
	cols := make([]int, cfg.Schema.Len())
	for i := range cols {
		cols[i] = i
	}
	if cfg.InputBuf.Kind == statebuf.KindHash {
		cfg.InputBuf.KeyCols = cols
	}
	if cfg.RepIdx.Kind == statebuf.KindHash {
		cfg.RepIdx.KeyCols = cols
	}
	trimEvery := cfg.TrimEvery
	if trimEvery <= 0 {
		trimEvery = cfg.RepIdx.Horizon / 20
	}
	if trimEvery < 1 {
		trimEvery = 1
	}
	d := &Distinct{
		schema:     cfg.Schema,
		input:      statebuf.New(cfg.InputBuf),
		reps:       make(map[tuple.Key]tuple.Tuple),
		expIdx:     statebuf.New(cfg.RepIdx),
		allCols:    cols,
		clock:      -1,
		timeExpiry: cfg.TimeExpiry,
		trimEvery:  trimEvery,
		lastTrim:   -1,
	}
	return d
}

// Class implements Operator.
func (d *Distinct) Class() core.OpClass { return core.OpDistinct }

// Schema implements Operator.
func (d *Distinct) Schema() *tuple.Schema { return d.schema }

// Process implements Operator.
func (d *Distinct) Process(side int, t tuple.Tuple, now int64) ([]tuple.Tuple, error) {
	if side != 0 {
		return nil, badSide("distinct", side)
	}
	var out Emit
	adv, err := d.Advance(now)
	if err != nil {
		return nil, err
	}
	out.AppendAll(adv)
	d.processOne(t, now, &out)
	return out.ts, nil
}

// ProcessBatch implements BatchProcessor: representative expiration runs once
// per run (per-tuple Advance no-ops at an unchanged clock), then the per-tuple
// bodies append into the shared buffer.
func (d *Distinct) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("distinct", side)
	}
	adv, err := d.Advance(now)
	if err != nil {
		return err
	}
	out.AppendAll(adv)
	for i := range in {
		d.processOne(in[i], now, out)
	}
	return nil
}

// processOne is the shared per-tuple body of Process and ProcessBatch; the
// caller has already run Advance for now.
func (d *Distinct) processOne(t tuple.Tuple, now int64, out *Emit) {
	k := t.Key(d.allCols)
	if t.Neg {
		d.processNegative(k, t, now, out)
		return
	}
	d.input.Insert(t)
	if _, ok := d.reps[k]; !ok {
		rep := t
		rep.TS = now
		d.reps[k] = rep
		// Under the negative-tuple strategy the expiry index is never read
		// (retirement arrives as retractions), so it is not maintained either.
		if d.timeExpiry {
			d.expIdx.Insert(rep)
		}
		out.Append(rep)
	}
}

// processNegative removes one retracted input tuple and repairs the
// representative for its value: retract it if no live duplicates remain, or
// re-emit with a tighter expiration if the retracted tuple was the longest-
// lived support.
func (d *Distinct) processNegative(k tuple.Key, t tuple.Tuple, now int64, out *Emit) {
	if !d.input.Remove(t) {
		return
	}
	rep, ok := d.reps[k]
	if !ok {
		return
	}
	// Find the longest-lived remaining duplicate. Under the negative-tuple
	// strategy stored tuples stay live until retracted, whatever their exp.
	probeAt := now
	if !d.timeExpiry {
		probeAt = noExpiry
	}
	var best tuple.Tuple
	found := false
	probe(d.input, d.allCols, k, probeAt, func(m tuple.Tuple) bool {
		if !found || m.Exp > best.Exp {
			best, found = m, true
		}
		return true
	})
	switch {
	case !found:
		delete(d.reps, k)
		if d.timeExpiry {
			d.expIdx.Remove(rep)
		}
		out.Append(rep.Negative(now))
	case rep.Exp > best.Exp:
		// The retracted tuple was the rep's support; shorten the rep.
		newRep := best
		newRep.TS = now
		d.reps[k] = newRep
		if d.timeExpiry {
			d.expIdx.Remove(rep)
			d.expIdx.Insert(newRep)
		}
		out.Append(rep.Negative(now))
		out.Append(newRep)
	}
}

// Advance expires representatives eagerly, emitting replacements (the
// youngest live duplicate) per Figure 2, and lazily trims the input buffer.
func (d *Distinct) Advance(now int64) ([]tuple.Tuple, error) {
	if !d.timeExpiry || now <= d.clock {
		return nil, nil
	}
	d.clock = now
	var out []tuple.Tuple
	for _, rep := range d.expIdx.ExpireUpTo(now) {
		k := rep.Key(d.allCols)
		cur, ok := d.reps[k]
		if !ok || cur.Exp != rep.Exp || cur.TS != rep.TS {
			continue // stale index entry; rep was replaced or retracted
		}
		delete(d.reps, k)
		// Replacement: youngest live duplicate in the input buffer.
		var best tuple.Tuple
		found := false
		probe(d.input, d.allCols, k, now, func(m tuple.Tuple) bool {
			d.touched++
			if !found || m.Exp > best.Exp {
				best, found = m, true
			}
			return true
		})
		if found {
			newRep := best
			newRep.TS = now
			d.reps[k] = newRep
			d.expIdx.Insert(newRep)
			out = append(out, newRep)
		}
	}
	if now-d.lastTrim >= d.trimEvery {
		d.lastTrim = now
		d.input.ExpireUpTo(now)
	}
	return out, nil
}

// StateSize implements Operator: the stored input, the output state, and the
// expiry index scheduling representative expirations — every structure a
// state sampler should see, consistent with the other stateful operators.
func (d *Distinct) StateSize() int { return d.input.Len() + len(d.reps) + d.expIdx.Len() }

// Touched implements Operator.
func (d *Distinct) Touched() int64 { return d.touched + d.input.Touched() + d.expIdx.Touched() }
