package operator

// Property test for the run contract of Operator.Process: for any operator
// and any random event script (positive runs, retractions, Advance
// interleavings), feeding each run whole, as runs of one, and in random
// splits must produce byte-identical emission renderings at every step and
// leave identical StateSize()/Touched() accounting. Grouping tuples into runs
// is an optimization, never a semantic change.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
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
		{name: "rel-join", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			j, err := NewRelJoin(RelJoinConfig{
				Stream: linkSchema(), Table: propTable(t, true),
				StreamCols: []int{0}, TableCols: []int{0},
				StreamBuf: list,
			})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
		{name: "nrr-join", sides: 1, negOK: true, make: func(t *testing.T) Operator {
			j, err := NewNRRJoin(NRRJoinConfig{
				Stream: linkSchema(), Table: propTable(t, false),
				StreamCols: []int{0}, TableCols: []int{0},
				LogResults: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
	}
}

// propTable builds the table the rel-join and nrr-join cases probe, keyed by
// the script's src column: src 0 and 2 match one row, src 1 two, src 3 none.
// The index is built before the rows go in, so every instance's buckets list
// rows in insertion order (EnsureIndex over existing rows visits them in map
// order, which differs between instances).
func propTable(t *testing.T, retro bool) *relation.Table {
	schema := tuple.MustSchema(
		tuple.Column{Name: "src", Kind: tuple.KindInt},
		tuple.Column{Name: "owner", Kind: tuple.KindString},
	)
	tbl := relation.NewNRR("owners", schema)
	if retro {
		tbl = relation.NewRelation("owners", schema)
	}
	tbl.EnsureIndex([]int{0})
	for _, src := range []int64{0, 1, 1, 2} {
		row := []tuple.Value{tuple.Int(src), tuple.String_(fmt.Sprint("owner", src, tbl.Len()))}
		if err := tbl.Apply(relation.Update{Kind: relation.Insert, TS: 0, Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
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

// runDrivers are the ways TestBatchDriversEquivalent cuts one script run
// into Process calls: piece returns the length of the next call's run given
// the number of tuples left.
var runDrivers = []struct {
	name  string
	piece func(r *rand.Rand, left int) int
}{
	{"one-run", func(_ *rand.Rand, left int) int { return left }},
	{"runs-of-one", func(*rand.Rand, int) int { return 1 }},
	{"random-splits", func(r *rand.Rand, left int) int { return 1 + r.Intn(left) }},
}

func TestBatchDriversEquivalent(t *testing.T) {
	for _, op := range propOps() {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", op.name, seed), func(t *testing.T) {
				script := genScript(rand.New(rand.NewSource(seed)), op.sides, op.negOK, 120)
				splits := rand.New(rand.NewSource(seed))
				ops := make([]Operator, len(runDrivers))
				for d := range ops {
					ops[d] = op.make(t)
				}
				out := new(Emit) // reset and reused across calls like the executor's
				got := make([]string, len(runDrivers))
				for i, ev := range script {
					for d, drv := range runDrivers {
						var emitted []tuple.Tuple
						if ev.run == nil {
							adv, err := ops[d].Advance(ev.now)
							if err != nil {
								t.Fatalf("event %d: %s: Advance: %v", i, drv.name, err)
							}
							emitted = adv
						}
						for rest := ev.run; len(rest) > 0; {
							n := drv.piece(splits, len(rest))
							out.Reset()
							if err := ops[d].Process(ev.side, rest[:n], ev.now, out); err != nil {
								t.Fatalf("event %d: %s: Process: %v", i, drv.name, err)
							}
							emitted = append(emitted, out.Tuples()...)
							rest = rest[n:]
						}
						got[d] = renderEmissions(emitted)
					}
					// Accounting must track step by step, not just at the end:
					// a run may not skip or duplicate state work.
					for d := 1; d < len(runDrivers); d++ {
						if got[d] != got[0] {
							t.Fatalf("event %d: emissions diverge (side %d, now %d, %d tuples)\n%s: %s\n%s: %s",
								i, ev.side, ev.now, len(ev.run), runDrivers[0].name, got[0], runDrivers[d].name, got[d])
						}
						if ops[d].StateSize() != ops[0].StateSize() || ops[d].Touched() != ops[0].Touched() {
							t.Fatalf("event %d: accounting diverges: %s state=%d touched=%d, %s state=%d touched=%d",
								i, runDrivers[0].name, ops[0].StateSize(), ops[0].Touched(),
								runDrivers[d].name, ops[d].StateSize(), ops[d].Touched())
						}
					}
				}
			})
		}
	}
}
