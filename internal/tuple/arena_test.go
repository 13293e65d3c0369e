package tuple

import "testing"

func TestValueArena(t *testing.T) {
	var a ValueArena
	if got := a.Alloc(0); got != nil {
		t.Fatal("Alloc(0) must return nil")
	}
	x := a.Alloc(3)
	y := a.Alloc(2)
	if len(x) != 3 || len(y) != 2 {
		t.Fatalf("lengths %d, %d", len(x), len(y))
	}
	if cap(x) != 3 {
		t.Fatalf("cap(x) = %d, want 3: appends must copy out, not clobber neighbors", cap(x))
	}
	x[2] = Int(42)
	if y[0].Kind != KindNull || y[1].Kind != KindNull {
		t.Fatal("arena rows overlap")
	}
	// Appending to an arena row must not overwrite the next row.
	_ = append(x, Int(99))
	if y[0].Kind != KindNull {
		t.Fatal("append on arena row clobbered neighbor")
	}
	// Oversized requests still work.
	big := a.Alloc(arenaSlab)
	if len(big) != arenaSlab {
		t.Fatal("oversized alloc wrong length")
	}
	// Steady state allocates ~1/(slab/n) per call; far under 1.
	allocs := testing.AllocsPerRun(1000, func() { _ = a.Alloc(4) })
	if allocs > 0.05 {
		t.Errorf("steady-state arena alloc: %v allocs/op", allocs)
	}
}
