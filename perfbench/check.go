package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/plan"
	"repro/internal/reference"
	"repro/internal/tuple"
)

// perturbFunc lets a test alter a view's rows before they are compared, to
// show the correctness gate catches a wrong view.
type perturbFunc func(view string, rows []reference.Row) []reference.Row

// checker compares result views outside every timed region and counts the
// ones that differ.
type checker struct {
	perturb perturbFunc
	log     io.Writer
	wrong   int
	views   int
}

func (c *checker) compare(view string, got, want []reference.Row) {
	c.views++
	if c.perturb != nil {
		got = c.perturb(view, got)
	}
	if !reference.SameBag(got, want) {
		c.wrong++
		fmt.Fprintf(c.log, "perfbench: view %s is wrong: %d rows, want %d\n", view, len(got), len(want))
	}
}

// snapshot syncs and returns query i's view of unit u.
func (u *unit) snapshot(i int) ([]tuple.Tuple, error) {
	if u.handles != nil {
		return u.handles[i].Snapshot()
	}
	return u.eng.Snapshot()
}

// checkReference compares every view of the phase with internal/reference
// fed the same arrivals and table updates. A time-windowed answer depends
// only on the arrivals still in the window, so the reference gets those and
// every table update, and is evaluated at the engine's clock.
func (p *phase) checkReference(c *checker) error {
	for _, u := range p.units {
		arrivals := u.tr.lastWindow(u.next, p.sp.window)
		now := u.eng.Clock()
		for i, q := range u.spec.queries {
			root := q.build(p.sp.window, u.tables)
			if err := plan.Annotate(root, q.stats); err != nil {
				return fmt.Errorf("reference plan %s: %w", q.name, err)
			}
			ev := reference.New(root)
			for _, a := range arrivals {
				ev.Push(a.Stream, a.TS, a.Vals...)
			}
			for _, tu := range p.tableLog {
				ev.PushTable(u.tables[tu.table], tu.u)
			}
			want, err := ev.Eval(now)
			if err != nil {
				return fmt.Errorf("reference %s: %w", q.name, err)
			}
			got, err := u.snapshot(i)
			if p.do(err) != nil {
				return fmt.Errorf("snapshot %s: %w", q.name, err)
			}
			c.compare(q.name, reference.RowsOf(got), want)
		}
	}
	return nil
}

// checkRestore restores the last checkpoint of a registry unit into a fresh
// registry with tables of its own, replays the arrivals and table updates
// made since, and compares every restored view with the live one. It
// returns how long RestoreRegistry took.
func (p *phase) checkRestore(u *unit, c *checker) (time.Duration, error) {
	if p.ckpts == 0 {
		// A run too short to reach a checkpoint takes one at its end.
		p.ckpt.Reset()
		if err := p.do(u.eng.CheckpointRegistry(&p.ckpt)); err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
		p.ckptAt, p.ckpts = u.next, 1
	}
	fresh := &phase{sp: p.sp}
	r, err := fresh.buildUnit(u.spec, u.tr, newTables(), 0)
	p.attempted += fresh.attempted
	p.failed += fresh.failed
	if err != nil {
		return 0, fmt.Errorf("restore target: %w", err)
	}
	t0 := time.Now()
	err = p.do(r.eng.RestoreRegistry(bytes.NewReader(p.ckpt.Bytes())))
	restore := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	next := 0
	for next < len(p.tableLog) && p.tableLog[next].at < p.ckptAt {
		next++
	}
	for g := p.ckptAt; g < u.next; g++ {
		for ; next < len(p.tableLog) && p.tableLog[next].at == g; next++ {
			tu := p.tableLog[next]
			if err := p.do(r.eng.ApplyTableUpdate(r.tables[tu.table], tu.u)); err != nil {
				return 0, fmt.Errorf("replay table update: %w", err)
			}
		}
		a := u.tr.at(g)
		if err := p.do(r.eng.Push(a.Stream, a.TS, a.Vals...)); err != nil {
			return 0, fmt.Errorf("replay push: %w", err)
		}
	}
	for i, q := range u.spec.queries {
		got, err := r.snapshot(i)
		if p.do(err) != nil {
			return 0, fmt.Errorf("restored snapshot %s: %w", q.name, err)
		}
		want, err := u.snapshot(i)
		if p.do(err) != nil {
			return 0, fmt.Errorf("snapshot %s: %w", q.name, err)
		}
		c.compare("restored "+q.name, reference.RowsOf(got), reference.RowsOf(want))
	}
	return restore, nil
}

// check runs the correctness gate on a synced phase and returns the time
// the reference evaluation and the restore took.
func (p *phase) check(c *checker) (refTime, restoreTime time.Duration, err error) {
	id := p.rec.begin(p.root, "reference.eval")
	t0 := time.Now()
	err = p.checkReference(c)
	refTime = time.Since(t0)
	p.rec.end(id)
	if err != nil {
		return refTime, 0, err
	}
	for _, u := range p.units {
		if u.handles == nil || p.sp.checkpointEvery == 0 {
			continue
		}
		id := p.rec.begin(p.root, "checkpoint.restore")
		restoreTime, err = p.checkRestore(u, c)
		p.rec.end(id)
		if err != nil {
			return refTime, restoreTime, err
		}
	}
	return refTime, restoreTime, nil
}
