package tuple

// arenaSlab is the number of Values carved per slab. At 40 bytes per Value a
// slab is ~40 KiB: large enough that steady-state row building amortizes to
// well under one allocation per row, small enough that a few straggling live
// rows do not pin much dead memory.
const arenaSlab = 1024

// ValueArena carves []Value rows out of shared slabs, for operators that
// build and retain many short rows (group-by keys and result rows) and would
// otherwise pay one make([]Value, n) per row. Arena rows are never freed
// individually; a slab is garbage once every row carved from it is
// unreachable.
//
// Rows from Alloc have len == cap == n, so an append on a carved row copies
// out instead of clobbering a neighbor.
type ValueArena struct {
	slab []Value
}

// Alloc returns a zeroed []Value of length n carved from the current slab,
// starting a fresh slab when the remainder is too small. Oversized requests
// (beyond a quarter slab) get a dedicated allocation so one wide row cannot
// burn most of a slab.
func (a *ValueArena) Alloc(n int) []Value {
	if n == 0 {
		return nil
	}
	if n > len(a.slab) {
		if n > arenaSlab/4 {
			return make([]Value, n)
		}
		a.slab = make([]Value, arenaSlab)
	}
	out := a.slab[:n:n]
	a.slab = a.slab[n:]
	return out
}
