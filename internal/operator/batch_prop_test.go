package operator

// Property test for the batch execution contract: for any operator and any
// random event script (positive runs, retractions, Advance interleavings),
// driving the script through (a) the tuple-at-a-time Process loop, (b) the
// generic FallbackBatch driver, and (c) ProcessBatchInto — the native
// ProcessBatch where one exists — must produce byte-identical emission
// renderings at every step and leave identical StateSize()/Touched()
// accounting. Batch execution is an optimization, never a semantic change.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/statebuf"
	"repro/internal/tuple"
)

// propOp describes one operator under test: make() builds a fresh,
// identically-configured instance (called once per driver).
type propOp struct {
	name  string
	sides int
	negOK bool // script may retract previously inserted tuples
	make  func(t *testing.T) Operator
}

func propOps() []propOp {
	list := statebuf.Config{Kind: statebuf.KindList}
	part := statebuf.Config{Kind: statebuf.KindPartitioned, Horizon: 64, Partitions: 8}
	return []propOp{
		{name: "select", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			return NewSelect(linkSchema(), ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")})
		}},
		{name: "project", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			p, err := NewProject(linkSchema(), []int{2, 0})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{name: "union", sides: 2, negOK: true, make: func(t *testing.T) Operator {
			u, err := NewUnion(linkSchema(), linkSchema())
			if err != nil {
				t.Fatal(err)
			}
			return u
		}},
		{name: "join", sides: 2, negOK: true, make: func(t *testing.T) Operator {
			j, err := NewJoin(JoinConfig{
				Left: linkSchema(), Right: linkSchema(),
				LeftCols: []int{0}, RightCols: []int{0},
				LeftBuf: statebuf.Config{Kind: statebuf.KindHash}, RightBuf: list,
			})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
		{name: "distinct", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			return NewDistinct(DistinctConfig{
				Schema: linkSchema(), InputBuf: list, RepIdx: part, TimeExpiry: true,
			})
		}},
		{name: "distinct-delta", sides: 1, negOK: false, make: func(t *testing.T) Operator {
			return NewDistinctDelta(linkSchema(), 64, 8)
		}},
		{name: "groupby", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			g, err := NewGroupBy(GroupByConfig{
				Input:     linkSchema(),
				GroupCols: []int{1},
				Aggs:      []AggSpec{{Kind: Count}, {Kind: Sum, Col: 2}},
				InputBuf:  list,
			})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{name: "negate", sides: 2, negOK: true, make: func(t *testing.T) Operator {
			n, err := NewNegate(NegateConfig{
				Left: linkSchema(), Right: linkSchema(),
				LeftCols: []int{1}, RightCols: []int{1},
				Horizon: 64, Partitions: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}},
		{name: "intersect", sides: 2, negOK: true, make: func(t *testing.T) Operator {
			x, err := NewIntersect(IntersectConfig{
				Left: linkSchema(), Right: linkSchema(),
				Horizon: 64, Partitions: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return x
		}},
	}
}

// propEvent is either an Advance to now (run == nil) or a run of same-side,
// same-clock tuples.
type propEvent struct {
	now  int64
	side int
	run  []tuple.Tuple
}

// genScript builds a deterministic event script: monotone clock, small bursty
// runs, occasional retractions of still-live tuples, occasional pure Advance
// steps that cross expiration boundaries.
func genScript(r *rand.Rand, sides int, negOK bool, steps int) []propEvent {
	var script []propEvent
	live := make([][]tuple.Tuple, sides)
	now := int64(1)
	for step := 0; step < steps; step++ {
		now += int64(r.Intn(4))
		// Drop expired tuples from the retraction pool so negatives always
		// target tuples the operator may still hold.
		for s := range live {
			keep := live[s][:0]
			for _, t := range live[s] {
				if t.Exp > now+1 {
					keep = append(keep, t)
				}
			}
			live[s] = keep
		}
		if r.Intn(5) == 0 {
			script = append(script, propEvent{now: now, side: -1})
			continue
		}
		side := r.Intn(sides)
		n := 1 + r.Intn(4)
		run := make([]tuple.Tuple, 0, n)
		for i := 0; i < n; i++ {
			if negOK && len(live[side]) > 0 && r.Intn(4) == 0 {
				k := r.Intn(len(live[side]))
				run = append(run, live[side][k].Negative(now))
				live[side] = append(live[side][:k], live[side][k+1:]...)
				continue
			}
			t := linkTuple(now, now+5+int64(r.Intn(20)),
				int64(r.Intn(4)), []string{"ftp", "http", "telnet"}[r.Intn(3)], int64(r.Intn(5)))
			run = append(run, t)
			live[side] = append(live[side], t)
		}
		script = append(script, propEvent{now: now, side: side, run: run})
	}
	return script
}

func renderEmissions(ts []tuple.Tuple) string { return fmt.Sprint(ts) }

func TestBatchDriversEquivalent(t *testing.T) {
	for _, op := range propOps() {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", op.name, seed), func(t *testing.T) {
				script := genScript(rand.New(rand.NewSource(seed)), op.sides, op.negOK, 120)
				seq := op.make(t) // tuple-at-a-time Process loop
				fb := op.make(t)  // generic FallbackBatch driver
				nat := op.make(t) // ProcessBatchInto (native path if present)
				out := new(Emit)  // reset and reused across events like the executor's
				for i, ev := range script {
					if ev.run == nil {
						a, errA := seq.Advance(ev.now)
						b, errB := fb.Advance(ev.now)
						c, errC := nat.Advance(ev.now)
						if errA != nil || errB != nil || errC != nil {
							t.Fatalf("event %d: Advance errs %v/%v/%v", i, errA, errB, errC)
						}
						if renderEmissions(a) != renderEmissions(b) || renderEmissions(a) != renderEmissions(c) {
							t.Fatalf("event %d: Advance(%d) emissions diverge\nseq:      %v\nfallback: %v\nnative:   %v",
								i, ev.now, a, b, c)
						}
						continue
					}
					var a []tuple.Tuple
					for _, in := range ev.run {
						outs, err := seq.Process(ev.side, in, ev.now)
						if err != nil {
							t.Fatalf("event %d: Process: %v", i, err)
						}
						a = append(a, outs...)
					}
					var bBuf Emit
					if err := FallbackBatch(fb, ev.side, ev.run, ev.now, &bBuf); err != nil {
						t.Fatalf("event %d: FallbackBatch: %v", i, err)
					}
					out.Reset()
					if err := ProcessBatchInto(nat, ev.side, ev.run, ev.now, out); err != nil {
						t.Fatalf("event %d: ProcessBatchInto: %v", i, err)
					}
					if renderEmissions(a) != renderEmissions(bBuf.Tuples()) ||
						renderEmissions(a) != renderEmissions(out.Tuples()) {
						t.Fatalf("event %d: run emissions diverge (side %d, now %d, %d tuples)\nseq:      %v\nfallback: %v\nnative:   %v",
							i, ev.side, ev.now, len(ev.run), a, bBuf.Tuples(), out.Tuples())
					}
					// Accounting must track step by step, not just at the end:
					// batch execution may not skip or duplicate state work.
					if seq.StateSize() != fb.StateSize() || seq.StateSize() != nat.StateSize() {
						t.Fatalf("event %d: StateSize diverges: seq=%d fallback=%d native=%d",
							i, seq.StateSize(), fb.StateSize(), nat.StateSize())
					}
					if seq.Touched() != fb.Touched() || seq.Touched() != nat.Touched() {
						t.Fatalf("event %d: Touched diverges: seq=%d fallback=%d native=%d",
							i, seq.Touched(), fb.Touched(), nat.Touched())
					}
				}
			})
		}
	}
}
