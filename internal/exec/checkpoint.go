package exec

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
)

// This file implements engine-level checkpoint and restore on top of the
// internal/checkpoint wire format. A checkpoint is one stream:
//
//	magic+version (checkpoint.Encoder.Begin)
//	plan fingerprint (string)
//	shard count (uvarint, always 1)
//	engine clock (varint)
//	table section: count, then per unique table its name and contents
//	one engine state section
//
// The fingerprint pins everything a checkpoint is NOT allowed to carry
// across: execution strategy, update-pattern class, view structure, output
// schema, and the full operator tree (ids and parameterized names). Restore
// validates the fingerprint and the shard count before touching any state,
// so a mismatched restore leaves the engine exactly as it was. The shard
// count is a relic of a removed key-partitioned executor: checkpoints that
// executor wrote with more than one shard are rejected with a
// *checkpoint.MismatchError on Field "shards".
//
// Configuration never travels in a checkpoint: windows, state-buffer
// choices, and operator wiring are rebuilt from the plan, and only dynamic
// state (clocks, cursors, counters, stored tuples) is serialized. A
// checkpoint therefore restores only into an engine built from the same
// query, strategy, and options.

// fingerprint renders the plan identity a checkpoint must match: strategy,
// root pattern, view structure, output schema, and the pre-order operator
// tree with source leaves (ids and parameterized names, exactly as EXPLAIN
// prints them).
func fingerprint(p *plan.Physical) string {
	t := plan.Explain(p)
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%v;pattern=%v;view=%s;schema=%s",
		t.Strategy, t.Pattern, t.View, p.Schema.String())
	t.Walk(func(n *plan.ExplainNode) {
		fmt.Fprintf(&b, ";%d:%s", n.ID, n.Name)
	})
	return b.String()
}

// uniqueTables lists the distinct tables the plan consumes, deduplicated by
// pointer, in plan registration order, so a table two operators consume is
// written once per checkpoint.
func uniqueTables(p *plan.Physical) []*relation.Table {
	seen := make(map[*relation.Table]bool)
	var out []*relation.Table
	for _, pn := range p.Tables {
		top, ok := pn.Op.(operator.TableOperator)
		if !ok {
			continue
		}
		t := top.Table()
		if t == nil || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

func writeTables(enc *checkpoint.Encoder, p *plan.Physical) error {
	tables := uniqueTables(p)
	enc.Uvarint(uint64(len(tables)))
	for _, t := range tables {
		enc.String(t.Name())
		if err := t.SaveState(enc); err != nil {
			return err
		}
	}
	return enc.Err()
}

func readTables(dec *checkpoint.Decoder, p *plan.Physical) error {
	tables := uniqueTables(p)
	n := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(tables) {
		return &checkpoint.MismatchError{
			Field: "tables", Want: strconv.Itoa(len(tables)), Got: strconv.Itoa(n),
		}
	}
	for _, t := range tables {
		name := dec.String()
		if err := dec.Err(); err != nil {
			return err
		}
		if name != t.Name() {
			return &checkpoint.MismatchError{Field: "table", Want: t.Name(), Got: name}
		}
		if err := t.LoadState(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// counterList returns the engine's cumulative counters in the fixed order
// they are serialized; SaveState and LoadState must agree on it.
func (e *Engine) counterList() []counterCell {
	return []counterCell{
		e.met.arrivals, e.met.emitted, e.met.retracted, e.met.windowNegatives,
		e.met.eagerPasses, e.met.lazyPasses, e.met.tableUpdates, e.met.viewExpired,
	}
}

// counterCell is the slice of the obs.Counter API the checkpoint needs.
type counterCell interface {
	Add(n int64)
	Value() int64
}

// preorderOps visits the operator tree root-first, left to right — the same
// order plan.Explain numbers nodes, so the fingerprint and the state layout
// agree on which section belongs to which operator.
func preorderOps(root *plan.PNode, fn func(pn *plan.PNode) error) error {
	if root == nil {
		return nil
	}
	if err := fn(root); err != nil {
		return err
	}
	for _, in := range root.Inputs {
		if in != nil {
			if err := preorderOps(in, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeState serializes one engine's dynamic state: clock and maintenance
// cursors, cumulative counters, window contents in source order, operator
// state in plan pre-order, and the result view.
func (e *Engine) writeState(enc *checkpoint.Encoder) error {
	enc.Varint(e.clock)
	enc.Varint(e.lastEager)
	enc.Varint(e.lastLazy)
	for _, c := range e.counterList() {
		enc.Varint(c.Value())
	}
	enc.Varint(e.met.maxStateTuples.Value())
	for _, src := range e.phys.Sources {
		if err := src.Window.SaveState(enc); err != nil {
			return err
		}
	}
	err := preorderOps(e.phys.Root, func(pn *plan.PNode) error {
		s, ok := pn.Op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", pn.Op)
		}
		return s.SaveState(enc)
	})
	if err != nil {
		return err
	}
	vs, ok := e.view.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("exec: view %T cannot snapshot", e.view)
	}
	if err := vs.SaveState(enc); err != nil {
		return err
	}
	return enc.Err()
}

// skipV2SymbolTable reads and discards the section a format-v2 engine state
// section ends with: a string symbol table (count, then the strings) and a
// columnar-eligibility flag. Version 3 writes neither; nothing reads them.
func skipV2SymbolTable(dec *checkpoint.Decoder) {
	if dec.Version() != 2 {
		return
	}
	n := dec.Count()
	for i := 0; i < n && dec.Err() == nil; i++ {
		_ = dec.String()
	}
	dec.Bool()
}

// readState is writeState's mirror. Counters are rehydrated by delta so a
// registry-backed series lands exactly on the saved value; afterwards the
// clock/watermark gauges and state samples are refreshed so metrics read
// consistently with the restored engine.
func (e *Engine) readState(dec *checkpoint.Decoder) error {
	e.clock = dec.Varint()
	e.lastEager = dec.Varint()
	e.lastLazy = dec.Varint()
	for _, c := range e.counterList() {
		c.Add(dec.Varint() - c.Value())
	}
	e.met.maxStateTuples.SetMax(dec.Varint())
	for _, src := range e.phys.Sources {
		if err := src.Window.LoadState(dec); err != nil {
			return err
		}
	}
	err := preorderOps(e.phys.Root, func(pn *plan.PNode) error {
		s, ok := pn.Op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", pn.Op)
		}
		return s.LoadState(dec)
	})
	if err != nil {
		return err
	}
	vs, ok := e.view.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("exec: view %T cannot snapshot", e.view)
	}
	if err := vs.LoadState(dec); err != nil {
		return err
	}
	skipV2SymbolTable(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	e.met.clock.Set(e.clock)
	e.met.watermark.Set(e.Watermark())
	e.refreshStateGauges()
	return nil
}

// Checkpoint writes the engine's complete dynamic state to w. It does not
// force pending maintenance: cursors travel with the state, so a restored
// engine resumes the exact maintenance schedule, and checkpointing never
// perturbs the run it snapshots. This is the single-query format; an engine
// carrying several registered queries checkpoints with CheckpointRegistry
// (or per query through QueryHandle.Checkpoint).
func (e *Engine) Checkpoint(w io.Writer) error {
	if len(e.queries) != 1 {
		return fmt.Errorf("exec: engine checkpoint requires exactly one registered query (have %d); use CheckpointRegistry", len(e.queries))
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	enc := checkpoint.NewEncoder(w)
	enc.Begin()
	enc.String(fingerprint(e.phys))
	enc.Uvarint(1)
	enc.Varint(e.clock)
	if err := writeTables(enc, e.phys); err != nil {
		return err
	}
	if err := e.writeState(enc); err != nil {
		return err
	}
	if err := enc.Err(); err != nil {
		return err
	}
	e.met.checkpoints.Inc()
	e.met.checkpointBytes.Set(enc.Bytes())
	e.met.checkpointLast.Set(obs.Nanotime())
	if e.timed {
		e.met.checkpointNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// Restore rehydrates the engine from a checkpoint written by an engine built
// from the same plan. The plan fingerprint and shard count are validated
// before any state is touched: a mismatch returns *checkpoint.MismatchError
// and leaves the engine unchanged. The engine should be freshly built;
// restoring over accumulated state replaces stored tuples but counter deltas
// assume a zero baseline.
func (e *Engine) Restore(r io.Reader) error {
	if len(e.queries) != 1 {
		return fmt.Errorf("exec: engine restore requires exactly one registered query (have %d); use RestoreRegistry", len(e.queries))
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	dec := checkpoint.NewDecoder(r)
	dec.Begin()
	fp := dec.String()
	shards := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	if want := fingerprint(e.phys); fp != want {
		return &checkpoint.MismatchError{Field: "plan", Want: want, Got: fp}
	}
	if shards != 1 {
		return &checkpoint.MismatchError{Field: "shards", Want: "1", Got: strconv.Itoa(shards)}
	}
	dec.Varint() // engine clock; the state section carries it too
	if err := dec.Err(); err != nil {
		return err
	}
	if err := readTables(dec, e.phys); err != nil {
		return err
	}
	if err := e.readState(dec); err != nil {
		return err
	}
	e.met.restores.Inc()
	if e.timed {
		e.met.restoreNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}
