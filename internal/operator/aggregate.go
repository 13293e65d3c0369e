package operator

import (
	"fmt"

	"repro/internal/tuple"
)

// AggKind enumerates the supported aggregate functions.
type AggKind int

const (
	// Count counts tuples in the group (the column is ignored).
	Count AggKind = iota
	// Sum sums a numeric column.
	Sum
	// Avg averages a numeric column.
	Avg
	// Min tracks the minimum of a column.
	Min
	// Max tracks the maximum of a column.
	Max
)

// String names the aggregate as in SQL.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", int(k))
	}
}

// AggSpec is one aggregate over one input column.
type AggSpec struct {
	Kind AggKind
	Col  int // ignored for Count
}

// String renders the spec, e.g. "SUM($3)".
func (s AggSpec) String() string { return fmt.Sprintf("%s($%d)", s.Kind, s.Col) }

// aggState incrementally maintains one aggregate for one group. SUM, COUNT
// and AVG are distributive/algebraic: arrivals add and expirations subtract
// in constant time (the paper's footnote 2). MIN and MAX keep a multiset of
// live values so the extreme can be re-derived when its last copy expires.
type aggState struct {
	spec  AggSpec
	n     int64
	sum   float64
	multi map[tuple.Value]int // live value multiplicities (Min/Max only)
}

func newAggState(spec AggSpec) *aggState {
	s := &aggState{spec: spec}
	if spec.Kind == Min || spec.Kind == Max {
		s.multi = make(map[tuple.Value]int)
	}
	return s
}

// add folds one arrival in; Count never reads a column (its Col is ignored
// and may be out of range).
func (s *aggState) add(t tuple.Tuple) {
	s.n++
	switch s.spec.Kind {
	case Sum, Avg:
		s.sum += t.Vals[s.spec.Col].AsFloat()
	case Min, Max:
		s.multi[t.Vals[s.spec.Col]]++
	}
}

// remove subtracts one departure.
func (s *aggState) remove(t tuple.Tuple) {
	s.n--
	switch s.spec.Kind {
	case Sum, Avg:
		s.sum -= t.Vals[s.spec.Col].AsFloat()
	case Min, Max:
		v := t.Vals[s.spec.Col]
		if s.multi[v] <= 1 {
			delete(s.multi, v)
		} else {
			s.multi[v]--
		}
	}
}

// value returns the current aggregate value; groups are removed before
// reaching n == 0, so callers never read an empty state.
func (s *aggState) value() tuple.Value {
	switch s.spec.Kind {
	case Count:
		return tuple.Int(s.n)
	case Sum:
		return tuple.Float(s.sum)
	case Avg:
		if s.n == 0 {
			return tuple.Null
		}
		return tuple.Float(s.sum / float64(s.n))
	case Min:
		var best tuple.Value
		first := true
		for v := range s.multi {
			if first || v.Less(best) {
				best, first = v, false
			}
		}
		if first {
			return tuple.Null
		}
		return best
	case Max:
		var best tuple.Value
		first := true
		for v := range s.multi {
			if first || best.Less(v) {
				best, first = v, false
			}
		}
		if first {
			return tuple.Null
		}
		return best
	default:
		return tuple.Null
	}
}
