package operator

// Allocation-regression gate for the stateless operators' run path. Once the
// Emit buffer has warmed to capacity, Select and Union must process a whole
// run without a single heap allocation, and Project must pay exactly one (the
// shared backing array for the run's projected rows). A failure here means a change re-introduced per-tuple
// allocations on the hot path — fix the change, don't raise the budget
// without a recorded benchmark justifying it.
//
// The budgets are skipped under -race: the detector's shadow bookkeeping
// allocates on otherwise allocation-free paths. CI runs them in a dedicated
// non-race step.

import (
	"testing"

	"repro/internal/race"
	"repro/internal/tuple"
)

// allocBudget asserts fn performs at most budget heap allocations per run.
func allocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	if got := testing.AllocsPerRun(200, fn); got > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.1f", name, got, budget)
	}
}

// allocBatch builds a 64-tuple run alternating match/no-match tuples.
func allocBatch() []tuple.Tuple {
	in := make([]tuple.Tuple, 64)
	for i := range in {
		proto := "ftp"
		if i%2 == 1 {
			proto = "http"
		}
		in[i] = linkTuple(10, 40, int64(i%8), proto, int64(i))
	}
	return in
}

func TestSelectBatchAllocFree(t *testing.T) {
	s := NewSelect(linkSchema(), ColConst{Col: 1, Op: EQ, Val: tuple.String_("ftp")})
	in := allocBatch()
	out := new(Emit)
	// Warm the Emit to the run's emission count so steady-state runs only
	// reuse capacity, as the executor's recycled buffers do.
	if err := s.Process(0, in, 10, out); err != nil {
		t.Fatal(err)
	}
	allocBudget(t, "Select.Process", 0, func() {
		out.Reset()
		if err := s.Process(0, in, 10, out); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnionBatchAllocFree(t *testing.T) {
	u, err := NewUnion(linkSchema(), linkSchema())
	if err != nil {
		t.Fatal(err)
	}
	in := allocBatch()
	out := new(Emit)
	if err := u.Process(0, in, 10, out); err != nil {
		t.Fatal(err)
	}
	allocBudget(t, "Union.Process", 0, func() {
		out.Reset()
		if err := u.Process(1, in, 10, out); err != nil {
			t.Fatal(err)
		}
	})
}

func TestProjectBatchSingleAlloc(t *testing.T) {
	p, err := NewProject(linkSchema(), []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	in := allocBatch()
	out := new(Emit)
	if err := p.Process(0, in, 10, out); err != nil {
		t.Fatal(err)
	}
	// One allocation per batch — the shared Value backing array all projected
	// rows sub-slice — instead of one per tuple.
	allocBudget(t, "Project.Process", 1, func() {
		out.Reset()
		if err := p.Process(0, in, 10, out); err != nil {
			t.Fatal(err)
		}
	})
}
