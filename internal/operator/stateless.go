package operator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tuple"
)

// Select drops tuples that fail a predicate. It is stateless and processes
// negative tuples with the same predicate, so a retraction passes exactly
// when the tuple it retracts passed (Section 2.1).
type Select struct {
	pred   Predicate
	schema *tuple.Schema
}

// NewSelect builds a selection operator.
func NewSelect(schema *tuple.Schema, pred Predicate) *Select {
	return &Select{pred: pred, schema: schema}
}

// Class implements Operator.
func (s *Select) Class() core.OpClass { return core.OpSelect }

// Schema implements Operator.
func (s *Select) Schema() *tuple.Schema { return s.schema }

// Predicate returns the selection condition.
func (s *Select) Predicate() Predicate { return s.pred }

// Process implements Operator.
func (s *Select) Process(side int, t tuple.Tuple, now int64) ([]tuple.Tuple, error) {
	if side != 0 {
		return nil, badSide("select", side)
	}
	if s.pred.Eval(t) {
		return []tuple.Tuple{t}, nil
	}
	return nil, nil
}

// ProcessBatch implements BatchProcessor: one predicate evaluation per tuple,
// no per-call output allocation.
func (s *Select) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("select", side)
	}
	for _, t := range in {
		if s.pred.Eval(t) {
			out.Append(t)
		}
	}
	return nil
}

// Advance implements Operator (stateless: nothing expires).
func (s *Select) Advance(int64) ([]tuple.Tuple, error) { return nil, nil }

// StateSize implements Operator.
func (s *Select) StateSize() int { return 0 }

// Touched implements Operator.
func (s *Select) Touched() int64 { return 0 }

// Project keeps the columns at the configured positions, preserving
// duplicates (bag semantics). Negative tuples are projected identically so
// their values keep matching the positive results they retract.
type Project struct {
	cols   []int
	schema *tuple.Schema
}

// NewProject builds a projection onto the given column positions of in.
func NewProject(in *tuple.Schema, cols []int) (*Project, error) {
	out, err := in.Project(cols)
	if err != nil {
		return nil, err
	}
	return &Project{cols: append([]int(nil), cols...), schema: out}, nil
}

// Class implements Operator.
func (p *Project) Class() core.OpClass { return core.OpProject }

// Schema implements Operator.
func (p *Project) Schema() *tuple.Schema { return p.schema }

// Cols returns the projected column positions.
func (p *Project) Cols() []int { return p.cols }

// Process implements Operator.
func (p *Project) Process(side int, t tuple.Tuple, now int64) ([]tuple.Tuple, error) {
	if side != 0 {
		return nil, badSide("project", side)
	}
	vals := make([]tuple.Value, len(p.cols))
	for i, c := range p.cols {
		vals[i] = t.Vals[c]
	}
	out := t
	out.Vals = vals
	return []tuple.Tuple{out}, nil
}

// ProcessBatch implements BatchProcessor: all projected value slices of a run
// share one backing array, so the per-tuple allocation of Process is paid
// once per batch.
func (p *Project) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 {
		return badSide("project", side)
	}
	backing := make([]tuple.Value, len(in)*len(p.cols))
	for _, t := range in {
		vals := backing[:len(p.cols):len(p.cols)]
		backing = backing[len(p.cols):]
		for i, c := range p.cols {
			vals[i] = t.Vals[c]
		}
		o := t
		o.Vals = vals
		out.Append(o)
	}
	return nil
}

// Advance implements Operator.
func (p *Project) Advance(int64) ([]tuple.Tuple, error) { return nil, nil }

// StateSize implements Operator.
func (p *Project) StateSize() int { return 0 }

// Touched implements Operator.
func (p *Project) Touched() int64 { return 0 }

// Union is the non-blocking merge union of two inputs with layout-equal
// schemas (Section 2.1). The executor delivers tuples in global timestamp
// order, so the merge reduces to forwarding; the operator asserts the order
// so a mis-scheduled plan fails loudly rather than silently reordering.
type Union struct {
	schema *tuple.Schema
	lastTS int64
}

// NewUnion builds a merge union; the inputs must be layout-equal.
func NewUnion(left, right *tuple.Schema) (*Union, error) {
	if !left.EqualLayout(right) {
		return nil, fmt.Errorf("union: schemas %v and %v are not layout-equal", left, right)
	}
	return &Union{schema: left, lastTS: -1}, nil
}

// Class implements Operator.
func (u *Union) Class() core.OpClass { return core.OpUnion }

// Schema implements Operator.
func (u *Union) Schema() *tuple.Schema { return u.schema }

// Process implements Operator.
func (u *Union) Process(side int, t tuple.Tuple, now int64) ([]tuple.Tuple, error) {
	if side != 0 && side != 1 {
		return nil, badSide("union", side)
	}
	if !t.Neg {
		if t.TS < u.lastTS {
			return nil, fmt.Errorf("union: non-blocking merge requires timestamp order (got %d after %d)", t.TS, u.lastTS)
		}
		u.lastTS = t.TS
	}
	return []tuple.Tuple{t}, nil
}

// ProcessBatch implements BatchProcessor.
func (u *Union) ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error {
	if side != 0 && side != 1 {
		return badSide("union", side)
	}
	for _, t := range in {
		if !t.Neg {
			if t.TS < u.lastTS {
				return fmt.Errorf("union: non-blocking merge requires timestamp order (got %d after %d)", t.TS, u.lastTS)
			}
			u.lastTS = t.TS
		}
		out.Append(t)
	}
	return nil
}

// Advance implements Operator.
func (u *Union) Advance(int64) ([]tuple.Tuple, error) { return nil, nil }

// StateSize implements Operator.
func (u *Union) StateSize() int { return 0 }

// Touched implements Operator.
func (u *Union) Touched() int64 { return 0 }
