package operator

import "repro/internal/tuple"

// Emit is a reusable, append-only output buffer for batch execution. It
// replaces the per-call []tuple.Tuple return slices of Operator.Process on
// the hot path: operators append their emissions and the executor forwards
// the accumulated run to the parent, then resets the buffer for reuse.
//
// Ownership and aliasing rules (DESIGN.md "Batch execution"):
//
//   - The executor owns the Emit. Operators only Append during one
//     ProcessBatch call and must not retain the buffer or the slice returned
//     by Tuples across calls.
//   - Tuples()' backing array is reused once the executor resets the buffer
//     for its next batch; callers that need emissions beyond the current
//     batch must copy the tuples out (the Tuple structs themselves are
//     values — storing a copied Tuple is safe, retaining the slice is not).
//   - Vals slices inside appended tuples are NOT copied or recycled; they
//     follow the same sharing discipline as the tuple-at-a-time path.
type Emit struct {
	ts []tuple.Tuple
}

// Append adds one emission.
func (e *Emit) Append(t tuple.Tuple) { e.ts = append(e.ts, t) }

// AppendAll adds a run of emissions.
func (e *Emit) AppendAll(ts []tuple.Tuple) { e.ts = append(e.ts, ts...) }

// Tuples returns the accumulated emissions in append order. The slice is
// only valid until the buffer is Reset.
func (e *Emit) Tuples() []tuple.Tuple { return e.ts }

// Len returns the number of accumulated emissions.
func (e *Emit) Len() int { return len(e.ts) }

// Reset empties the buffer, keeping its capacity.
func (e *Emit) Reset() { e.ts = e.ts[:0] }

// BatchProcessor is the optional batch fast path of the operator contract:
// ProcessBatch(side, in, now, out) must emit into out exactly the
// concatenation of what Process(side, in[0], now), Process(side, in[1], now),
// ... would return, in order — batch execution is an allocation/dispatch
// optimization, never a semantic change. The hot operators (the stateless
// chain, window join, duplicate elimination, group-by, negation,
// intersection) implement it natively; every other operator runs through the
// generic fallback driver, so implementing it is never required for
// correctness.
type BatchProcessor interface {
	ProcessBatch(side int, in []tuple.Tuple, now int64, out *Emit) error
}

// ProcessBatchInto drives op over a run of same-side, same-clock input
// tuples: the native batch path when op implements BatchProcessor, the
// generic fallback loop otherwise. Emissions are appended to out.
func ProcessBatchInto(op Operator, side int, in []tuple.Tuple, now int64, out *Emit) error {
	if bp, ok := op.(BatchProcessor); ok {
		return bp.ProcessBatch(side, in, now, out)
	}
	return FallbackBatch(op, side, in, now, out)
}

// FallbackBatch drives Process in a loop, appending each call's emissions to
// out — the generic batch driver every operator without a native
// ProcessBatch runs under. By construction its output is identical to the
// tuple-at-a-time loop.
func FallbackBatch(op Operator, side int, in []tuple.Tuple, now int64, out *Emit) error {
	for _, t := range in {
		outs, err := op.Process(side, t, now)
		if err != nil {
			return err
		}
		out.AppendAll(outs)
	}
	return nil
}
