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

// Registry checkpoint format. A multi-query engine's dynamic state is one
// stream:
//
//	magic+version (checkpoint.Encoder.Begin)
//	registry fingerprint (string: per-query label + plan fingerprint,
//	  in registration order)
//	query count (uvarint)
//	coordinator clock (varint)
//	table section: count, then per unique table (deduplicated across all
//	  queries) its name and contents
//	clock + maintenance cursors + global counters
//	window state, one section per canonical source in registration order
//	operator state, one section per canonical operator in registration
//	  (children-first) order
//	view state, one section per query in registration order
//	(format v2 only: interner symbol table + columnar flag, discarded on
//	  read)
//
// Shared state is written once — a node serving eight queries contributes
// one section. The fingerprint pins the full registration sequence (names,
// plans, order), and the canonical layout is a deterministic function of
// that sequence, so a restoring engine that was rebuilt by replaying the
// same registrations lays its sections out identically. A registry that has
// seen unregistrations restores only into an engine that replayed the same
// register/unregister history's surviving sequence... which the fingerprint
// cannot distinguish from a fresh engine registered with the survivors in
// order — but those two engines differ in canonical layout only if
// registration order changed, which the fingerprint does encode.

// registryFingerprint renders the registration-sequence identity a registry
// checkpoint must match.
func (e *Engine) registryFingerprint() string {
	var b strings.Builder
	b.WriteString("registry")
	for _, q := range e.queries {
		fmt.Fprintf(&b, ";%s=%s", q.label(), fingerprint(q.phys))
	}
	return b.String()
}

// uniqueRegistryTables lists the distinct tables the live dataflow
// consumes, deduplicated by pointer, in canonical registration order.
func (e *Engine) uniqueRegistryTables() []*relation.Table {
	seen := make(map[*relation.Table]bool)
	var out []*relation.Table
	for _, pn := range e.tables {
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

// CheckpointRegistry writes the full multi-query engine state — shared
// state once, per-query views each — restorable into an engine that
// registered the same queries in the same order (RestoreRegistry).
func (e *Engine) CheckpointRegistry(w io.Writer) error {
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	enc := checkpoint.NewEncoder(w)
	enc.Begin()
	enc.String(e.registryFingerprint())
	enc.Uvarint(uint64(len(e.queries)))
	enc.Varint(e.clock)
	tables := e.uniqueRegistryTables()
	enc.Uvarint(uint64(len(tables)))
	for _, t := range tables {
		enc.String(t.Name())
		if err := t.SaveState(enc); err != nil {
			return err
		}
	}
	enc.Varint(e.clock)
	enc.Varint(e.lastEager)
	enc.Varint(e.lastLazy)
	for _, c := range e.counterList() {
		enc.Varint(c.Value())
	}
	enc.Varint(e.met.maxStateTuples.Value())
	for _, src := range e.sources {
		if err := src.Window.SaveState(enc); err != nil {
			return err
		}
	}
	for _, pn := range e.order {
		s, ok := pn.Op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", pn.Op)
		}
		if err := s.SaveState(enc); err != nil {
			return err
		}
	}
	for _, q := range e.queries {
		vs, ok := q.view.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: view %T cannot snapshot", q.view)
		}
		if err := vs.SaveState(enc); err != nil {
			return err
		}
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

// RestoreRegistry rehydrates a multi-query engine from a CheckpointRegistry
// stream. The registry fingerprint — query names, plans, and registration
// order — is validated before any state is touched; a mismatch returns
// *checkpoint.MismatchError and leaves the engine unchanged. The engine
// should be freshly built with the same registration sequence.
func (e *Engine) RestoreRegistry(r io.Reader) error {
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	dec := checkpoint.NewDecoder(r)
	dec.Begin()
	fp := dec.String()
	n := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	if want := e.registryFingerprint(); fp != want {
		return &checkpoint.MismatchError{Field: "registry", Want: want, Got: fp}
	}
	if n != len(e.queries) {
		return &checkpoint.MismatchError{
			Field: "queries", Want: strconv.Itoa(len(e.queries)), Got: strconv.Itoa(n),
		}
	}
	dec.Varint() // coordinator clock; the engine's clock travels below
	tables := e.uniqueRegistryTables()
	tn := dec.Count()
	if err := dec.Err(); err != nil {
		return err
	}
	if tn != len(tables) {
		return &checkpoint.MismatchError{
			Field: "tables", Want: strconv.Itoa(len(tables)), Got: strconv.Itoa(tn),
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
	e.clock = dec.Varint()
	e.lastEager = dec.Varint()
	e.lastLazy = dec.Varint()
	for _, c := range e.counterList() {
		c.Add(dec.Varint() - c.Value())
	}
	e.met.maxStateTuples.SetMax(dec.Varint())
	for _, src := range e.sources {
		if err := src.Window.LoadState(dec); err != nil {
			return err
		}
	}
	for _, pn := range e.order {
		s, ok := pn.Op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", pn.Op)
		}
		if err := s.LoadState(dec); err != nil {
			return err
		}
	}
	for _, q := range e.queries {
		vs, ok := q.view.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: view %T cannot snapshot", q.view)
		}
		if err := vs.LoadState(dec); err != nil {
			return err
		}
	}
	skipV2SymbolTable(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	e.met.clock.Set(e.clock)
	e.met.watermark.Set(e.Watermark())
	e.refreshStateGauges()
	e.met.restores.Inc()
	if e.timed {
		e.met.restoreNanos.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

// Checkpoint writes this query's slice of the registry in the standalone
// single-engine format: a stream restorable into a plain engine built from
// the same plan (exec.New / the facade's Compile). Shared state is written
// through the query's canonical mapping, so the extracted engine carries
// exactly the windows, operator state, and view this query observes.
// Cumulative counters are registry-wide (per-query counters exist only as
// metric series), so the extracted engine's Stats over-report if other
// queries were registered.
func (h *QueryHandle) Checkpoint(w io.Writer) error {
	e, q := h.e, h.q
	enc := checkpoint.NewEncoder(w)
	enc.Begin()
	enc.String(fingerprint(q.phys))
	enc.Uvarint(1)
	enc.Varint(e.clock)
	if err := writeTables(enc, q.phys); err != nil {
		return err
	}
	enc.Varint(e.clock)
	enc.Varint(e.lastEager)
	enc.Varint(e.lastLazy)
	for _, c := range e.counterList() {
		enc.Varint(c.Value())
	}
	enc.Varint(e.met.maxStateTuples.Value())
	for _, src := range q.phys.Sources {
		if err := q.canonSrc(src).Window.SaveState(enc); err != nil {
			return err
		}
	}
	var root *plan.PNode
	if q.phys.Root != nil {
		root = q.canon(q.phys.Root)
	}
	err := preorderOps(root, func(pn *plan.PNode) error {
		s, ok := pn.Op.(checkpoint.Snapshotter)
		if !ok {
			return fmt.Errorf("exec: operator %T cannot snapshot", pn.Op)
		}
		return s.SaveState(enc)
	})
	if err != nil {
		return err
	}
	vs, ok := q.view.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("exec: view %T cannot snapshot", q.view)
	}
	if err := vs.SaveState(enc); err != nil {
		return err
	}
	return enc.Err()
}
