package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"time"

	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// srcHosts is the source-address domain of every generated trace (the
// generator's default, as in the paper's experiments).
const srcHosts = 1000

// traceSet is one replay period of a generated trace: window time units of
// arrivals, one per link per time unit, with timestamps in [0, window). The
// benchmark replays it endlessly, shifting period k by k×window time units,
// so a run of any length needs only one window of generated records and a
// window at any time holds exactly one shifted copy of every record.
type traceSet struct {
	links  int
	period int64
	recs   []exec.Arrival
}

func genTrace(seed int64, links int, window int64, skew float64) *traceSet {
	g := trace.NewGenerator(trace.Config{
		Links: links, Tuples: int(window) * links, Seed: seed,
		SrcHosts: srcHosts, SrcSkew: skew,
	})
	ts := &traceSet{links: links, period: window, recs: make([]exec.Arrival, 0, int(window)*links)}
	for {
		r, ok := g.Next()
		if !ok {
			return ts
		}
		ts.recs = append(ts.recs, exec.Arrival{Stream: r.Link, TS: r.TS, Vals: r.Vals})
	}
}

// at returns arrival g of the endless replay. Arrival g has timestamp
// g/links, since every time unit carries one arrival per link.
func (t *traceSet) at(g int64) exec.Arrival {
	n := int64(len(t.recs))
	a := t.recs[g%n]
	a.TS += g / n * t.period
	return a
}

// tsOf is the timestamp of arrival g.
func (t *traceSet) tsOf(g int64) int64 { return g / int64(t.links) }

// lastWindow returns the arrivals of the replay prefix [0, end) that are
// still inside a time window of size w at the prefix's last timestamp: the
// only arrivals a time-windowed query's answer can depend on.
func (t *traceSet) lastWindow(end, w int64) []exec.Arrival {
	if end == 0 {
		return nil
	}
	now := t.tsOf(end - 1)
	from := (now - w + 1) * int64(t.links)
	if from < 0 {
		from = 0
	}
	out := make([]exec.Arrival, 0, end-from)
	for g := from; g < end; g++ {
		out = append(out, t.at(g))
	}
	return out
}

// tableSchema is the schema of registry-push's two tables: a host id the
// stream's src column joins on, and a label.
func tableSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "host", Kind: tuple.KindInt},
		tuple.Column{Name: "label", Kind: tuple.KindString},
	)
}

var tableLabels = []string{"campus", "lab", "dorm", "vpn", "guest", "dc"}

// tableRowPool is how many distinct table rows registry-push cycles through.
const tableRowPool = 1024

func genTableRows(seed int64) [][]tuple.Value {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]tuple.Value, tableRowPool)
	for i := range rows {
		rows[i] = []tuple.Value{
			tuple.Int(int64(rng.Intn(srcHosts))),
			tuple.String_(tableLabels[rng.Intn(len(tableLabels))]),
		}
	}
	return rows
}

// inputs is everything one run feeds the system, generated from the seed
// before any engine exists.
type inputs struct {
	window int64
	// traces holds one trace per unit, in unit order.
	traces []*traceSet
	// tableRows is registry-push's pool of table rows (nil elsewhere).
	tableRows [][]tuple.Value
	genTime   time.Duration
}

func genInputs(sp spec, seed int64) *inputs {
	t0 := time.Now()
	in := &inputs{window: sp.window}
	for i, u := range sp.units {
		in.traces = append(in.traces, genTrace(seed*1009+int64(i+1), u.links, sp.window, u.skew))
	}
	if sp.tableEvery > 0 {
		in.tableRows = genTableRows(seed*1009 + 997)
	}
	in.genTime = time.Since(t0)
	return in
}

// digest fingerprints the generated inputs: the same seed must give the same
// digest, so a run is reproducible from its recorded seed.
func (in *inputs) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putVals := func(vals []tuple.Value) {
		put(uint64(len(vals)))
		for _, v := range vals {
			put(uint64(v.Kind))
			put(uint64(v.I))
			put(math.Float64bits(v.F))
			put(uint64(len(v.S)))
			h.Write([]byte(v.S))
		}
	}
	put(uint64(in.window))
	for _, t := range in.traces {
		put(uint64(t.links))
		for _, a := range t.recs {
			put(uint64(a.Stream))
			put(uint64(a.TS))
			putVals(a.Vals)
		}
	}
	for _, r := range in.tableRows {
		putVals(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tableUpdate is one logged table mutation: which of the two tables, the
// update, and the replay index of the arrival it was applied before.
type tableUpdate struct {
	table int
	at    int64
	u     relation.Update
}

// tableFeed generates registry-push's table updates deterministically:
// updates alternate between the two tables, and each table grows to
// tableLiveRows rows, then alternates deleting its oldest row and inserting
// the next pool row, so table size stays bounded however long a run lasts.
type tableFeed struct {
	pool [][]tuple.Value
	next int
	live [2][][]tuple.Value
	n    int64
}

const tableLiveRows = 32

func (f *tableFeed) nextUpdate(at, ts int64) tableUpdate {
	ti := int(f.n % 2)
	f.n++
	live := f.live[ti]
	if len(live) < tableLiveRows {
		row := f.pool[f.next%len(f.pool)]
		f.next++
		f.live[ti] = append(live, row)
		return tableUpdate{table: ti, at: at, u: relation.Update{Kind: relation.Insert, TS: ts, Row: row}}
	}
	row := live[0]
	f.live[ti] = live[1:]
	return tableUpdate{table: ti, at: at, u: relation.Update{Kind: relation.Delete, TS: ts, Row: row}}
}
