package cql

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
)

// FuzzCQL drives arbitrary query text through the whole compilation path —
// Parse, Annotate, Build under NT, DIRECT and UPA, and engine construction.
// Any stage may reject the input with an error; none may panic. The seed
// corpus under testdata/fuzz/FuzzCQL holds the queries of cql_test.go, the
// accepted ones and the rejected ones.
func FuzzCQL(f *testing.F) {
	f.Fuzz(func(t *testing.T, q string) {
		for _, strat := range []plan.Strategy{plan.NT, plan.Direct, plan.UPA} {
			// Annotate rewrites the tree, so every strategy parses afresh.
			root, err := Parse(q, testCatalog())
			if err != nil {
				return
			}
			if err := plan.Annotate(root, plan.DefaultStats()); err != nil {
				return
			}
			phys, err := plan.Build(root, strat, plan.Options{})
			if err != nil {
				continue
			}
			_, _ = exec.New(phys, exec.Config{})
		}
	})
}
