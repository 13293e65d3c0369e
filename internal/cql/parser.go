package cql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/window"
)

// StreamDef registers one base stream with the parser.
type StreamDef struct {
	ID     int
	Schema *tuple.Schema
}

// Catalog names the streams and tables a query may reference.
type Catalog struct {
	Streams map[string]StreamDef
	Tables  map[string]*relation.Table
}

// Parse compiles a query string into an unannotated logical plan; callers
// run plan.Annotate (directly or via the facade's Compile).
func Parse(src string, cat Catalog) (*plan.Node, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens, cat: cat}
	n, err := p.query()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after query", p.peek().text)
	}
	return n, nil
}

type parser struct {
	tokens []token
	at     int
	cat    Catalog
	// lastTable carries a table reference from source() to the enclosing
	// JOIN ... ON clause.
	lastTable *relation.Table
}

func (p *parser) peek() token    { return p.tokens[p.at] }
func (p *parser) next() token    { t := p.tokens[p.at]; p.at++; return t }
func (p *parser) atEOF() bool    { return p.peek().kind == tokEOF }
func (p *parser) save() int      { return p.at }
func (p *parser) restore(at int) { p.at = at }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("cql: position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// keyword consumes an identifier matching word (case-insensitive).
func (p *parser) keyword(word string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.at++
		return true
	}
	return false
}

func (p *parser) expectKeyword(word string) error {
	if !p.keyword(word) {
		return p.errf("expected %s, got %q", word, p.peek().text)
	}
	return nil
}

func (p *parser) symbol(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.at++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.symbol(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.at++
	return t.text, nil
}

// selItem is one SELECT-list entry: a column or an aggregate.
type selItem struct {
	col string
	agg operator.AggKind
	arg string // aggregate argument column ("" for COUNT(*))
	is  bool   // is an aggregate
}

// query := SELECT [DISTINCT] selList FROM fromExpr [WHERE cond] [GROUP BY cols]
func (p *parser) query() (*plan.Node, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	distinct := p.keyword("DISTINCT")
	star, items, err := p.selList()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	node, schema, err := p.fromExpr()
	if err != nil {
		return nil, err
	}
	if p.keyword("WHERE") {
		pred, err := p.cond(schema)
		if err != nil {
			return nil, err
		}
		node = plan.NewSelect(node, pred)
	}
	var groupCols []string
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		groupCols, err = p.identList()
		if err != nil {
			return nil, err
		}
	}
	return p.finish(node, schema, star, distinct, items, groupCols)
}

// finish applies projection / distinct / group-by per the select list.
func (p *parser) finish(node *plan.Node, schema *tuple.Schema, star, distinct bool, items []selItem, groupCols []string) (*plan.Node, error) {
	hasAgg := false
	for _, it := range items {
		if it.is {
			hasAgg = true
		}
	}
	switch {
	case hasAgg || len(groupCols) > 0:
		if star {
			return nil, fmt.Errorf("cql: SELECT * cannot be combined with GROUP BY")
		}
		var gIdx []int
		for _, g := range groupCols {
			i := schema.Index(g)
			if i < 0 {
				return nil, fmt.Errorf("cql: no column %q for GROUP BY", g)
			}
			gIdx = append(gIdx, i)
		}
		// Non-aggregate select items must be group columns.
		var aggs []operator.AggSpec
		for _, it := range items {
			if !it.is {
				if !containsStr(groupCols, it.col) {
					return nil, fmt.Errorf("cql: column %q must appear in GROUP BY", it.col)
				}
				continue
			}
			spec := operator.AggSpec{Kind: it.agg}
			if it.arg != "" {
				c := schema.Index(it.arg)
				if c < 0 {
					return nil, fmt.Errorf("cql: no column %q in aggregate", it.arg)
				}
				spec.Col = c
			}
			aggs = append(aggs, spec)
		}
		if len(aggs) == 0 {
			return nil, fmt.Errorf("cql: GROUP BY needs at least one aggregate in the select list")
		}
		if distinct {
			return nil, fmt.Errorf("cql: DISTINCT with GROUP BY is not supported")
		}
		return plan.NewGroupBy(node, gIdx, aggs...), nil

	case star:
		if distinct {
			node = plan.NewDistinct(node)
		}
		return node, nil

	default:
		var idx []int
		for _, it := range items {
			i := schema.Index(it.col)
			if i < 0 {
				return nil, fmt.Errorf("cql: no column %q", it.col)
			}
			idx = append(idx, i)
		}
		node = plan.NewProject(node, idx...)
		if distinct {
			node = plan.NewDistinct(node)
		}
		return node, nil
	}
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// selList := '*' | item {',' item}
func (p *parser) selList() (star bool, items []selItem, err error) {
	if p.symbol("*") {
		return true, nil, nil
	}
	for {
		it, err := p.selItem()
		if err != nil {
			return false, nil, err
		}
		items = append(items, it)
		if !p.symbol(",") {
			return false, items, nil
		}
	}
}

var aggKinds = map[string]operator.AggKind{
	"COUNT": operator.Count,
	"SUM":   operator.Sum,
	"AVG":   operator.Avg,
	"MIN":   operator.Min,
	"MAX":   operator.Max,
}

func (p *parser) selItem() (selItem, error) {
	name, err := p.ident()
	if err != nil {
		return selItem{}, err
	}
	kind, isAgg := aggKinds[strings.ToUpper(name)]
	if !isAgg || !p.symbol("(") {
		return selItem{col: name}, nil
	}
	if p.symbol("*") {
		if kind != operator.Count {
			return selItem{}, p.errf("only COUNT accepts *")
		}
		if err := p.expectSymbol(")"); err != nil {
			return selItem{}, err
		}
		return selItem{is: true, agg: kind}, nil
	}
	arg, err := p.ident()
	if err != nil {
		return selItem{}, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return selItem{}, err
	}
	return selItem{is: true, agg: kind, arg: arg}, nil
}

// fromExpr := source { JOIN source ON cols | EXCEPT source ON cols |
// UNION source | INTERSECT source }
func (p *parser) fromExpr() (*plan.Node, *tuple.Schema, error) {
	node, schema, err := p.source()
	if err != nil {
		return nil, nil, err
	}
	if node == nil {
		return nil, nil, p.errf("FROM must start with a stream, not a table")
	}
	for {
		switch {
		case p.keyword("JOIN"):
			right, rs, err := p.source()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, nil, err
			}
			cols, err := p.identList()
			if err != nil {
				return nil, nil, err
			}
			if right == nil { // table join
				node, schema, err = p.tableJoin(node, schema, cols)
				if err != nil {
					return nil, nil, err
				}
				continue
			}
			l, err := resolveAll(schema, cols)
			if err != nil {
				return nil, nil, err
			}
			r, err := resolveAll(rs, cols)
			if err != nil {
				return nil, nil, err
			}
			node = plan.NewJoin(node, right, l, r)
			schema = schema.Concat(rs)

		case p.keyword("EXCEPT"):
			right, rs, err := p.source()
			if err != nil {
				return nil, nil, err
			}
			if right == nil {
				return nil, nil, p.errf("EXCEPT requires a stream, not a table")
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, nil, err
			}
			cols, err := p.identList()
			if err != nil {
				return nil, nil, err
			}
			l, err := resolveAll(schema, cols)
			if err != nil {
				return nil, nil, err
			}
			r, err := resolveAll(rs, cols)
			if err != nil {
				return nil, nil, err
			}
			node = plan.NewNegate(node, right, l, r)

		case p.keyword("UNION"):
			right, _, err := p.source()
			if err != nil {
				return nil, nil, err
			}
			if right == nil {
				return nil, nil, p.errf("UNION requires a stream, not a table")
			}
			node = plan.NewUnion(node, right)

		case p.keyword("INTERSECT"):
			right, _, err := p.source()
			if err != nil {
				return nil, nil, err
			}
			if right == nil {
				return nil, nil, p.errf("INTERSECT requires a stream, not a table")
			}
			node = plan.NewIntersect(node, right)

		default:
			return node, schema, nil
		}
	}
}

// tableJoin resolves cols on both the stream schema and the table schema.
func (p *parser) tableJoin(node *plan.Node, schema *tuple.Schema, cols []string) (*plan.Node, *tuple.Schema, error) {
	tbl := p.lastTable
	if tbl == nil {
		return nil, nil, p.errf("internal: table join without table")
	}
	sIdx, err := resolveAll(schema, cols)
	if err != nil {
		return nil, nil, err
	}
	tIdx, err := resolveAll(tbl.Schema(), cols)
	if err != nil {
		return nil, nil, err
	}
	var n *plan.Node
	if tbl.Retroactive() {
		n = plan.NewRelJoin(node, tbl, sIdx, tIdx)
	} else {
		n = plan.NewNRRJoin(node, tbl, sIdx, tIdx)
	}
	return n, schema.Concat(tbl.Schema()), nil
}

// source := name [window]. Returns (nil, nil, nil) for a table reference,
// remembering the table in lastTable for the enclosing JOIN.
func (p *parser) source() (*plan.Node, *tuple.Schema, error) {
	name, err := p.ident()
	if err != nil {
		return nil, nil, err
	}
	if def, ok := p.cat.Streams[name]; ok {
		spec, err := p.windowSpec()
		if err != nil {
			return nil, nil, err
		}
		return plan.NewSource(def.ID, spec, def.Schema), def.Schema, nil
	}
	if tbl, ok := p.cat.Tables[name]; ok {
		p.lastTable = tbl
		return nil, nil, nil
	}
	return nil, nil, p.errf("unknown stream or table %q", name)
}

// windowSpec := '[' RANGE n | ROWS n | UNBOUNDED ']' ; defaults to
// UNBOUNDED when absent.
func (p *parser) windowSpec() (window.Spec, error) {
	if !p.symbol("[") {
		return window.Unbounded, nil
	}
	switch {
	case p.keyword("RANGE"):
		n, err := p.integer()
		if err != nil {
			return window.Spec{}, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return window.Spec{}, err
		}
		return window.Spec{Type: window.TimeBased, Size: n}, nil
	case p.keyword("ROWS"):
		n, err := p.integer()
		if err != nil {
			return window.Spec{}, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return window.Spec{}, err
		}
		return window.Spec{Type: window.CountBased, Size: n}, nil
	case p.keyword("UNBOUNDED"):
		if err := p.expectSymbol("]"); err != nil {
			return window.Spec{}, err
		}
		return window.Unbounded, nil
	default:
		return window.Spec{}, p.errf("expected RANGE, ROWS, or UNBOUNDED")
	}
}

func (p *parser) integer() (int64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected number, got %q", t.text)
	}
	p.at++
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf("bad number %q", t.text)
	}
	return n, nil
}

func (p *parser) identList() ([]string, error) {
	var out []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, name)
		if !p.symbol(",") {
			return out, nil
		}
	}
}

func resolveAll(s *tuple.Schema, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = s.Index(c)
		if out[i] < 0 {
			return nil, fmt.Errorf("cql: no column %q in %s", c, s)
		}
	}
	return out, nil
}

// cond := andCond { OR andCond }
func (p *parser) cond(s *tuple.Schema) (operator.Predicate, error) {
	left, err := p.andCond(s)
	if err != nil {
		return nil, err
	}
	terms := operator.Or{left}
	for p.keyword("OR") {
		right, err := p.andCond(s)
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return terms, nil
}

// andCond := cmp { AND cmp }
func (p *parser) andCond(s *tuple.Schema) (operator.Predicate, error) {
	left, err := p.cmp(s)
	if err != nil {
		return nil, err
	}
	terms := operator.And{left}
	for p.keyword("AND") {
		right, err := p.cmp(s)
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return terms, nil
}

// cmp := NOT cmp | '(' cond ')' | ident op literal | ident op ident
func (p *parser) cmp(s *tuple.Schema) (operator.Predicate, error) {
	if p.keyword("NOT") {
		inner, err := p.cmp(s)
		if err != nil {
			return nil, err
		}
		return operator.Not{P: inner}, nil
	}
	if p.symbol("(") {
		inner, err := p.cond(s)
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	ci := s.Index(col)
	if ci < 0 {
		return nil, p.errf("no column %q", col)
	}
	op, err := p.cmpOp()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.at++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return operator.ColConst{Col: ci, Op: op, Val: tuple.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return operator.ColConst{Col: ci, Op: op, Val: tuple.Int(n)}, nil
	case tokString:
		p.at++
		return operator.ColConst{Col: ci, Op: op, Val: tuple.String_(t.text)}, nil
	case tokIdent:
		p.at++
		rj := s.Index(t.text)
		if rj < 0 {
			return nil, p.errf("no column %q", t.text)
		}
		return operator.ColCol{Left: ci, Right: rj, Op: op}, nil
	default:
		return nil, p.errf("expected literal or column, got %q", t.text)
	}
}

func (p *parser) cmpOp() (operator.CmpOp, error) {
	t := p.peek()
	if t.kind != tokSymbol {
		return 0, p.errf("expected comparison, got %q", t.text)
	}
	var op operator.CmpOp
	switch t.text {
	case "=":
		op = operator.EQ
	case "!=", "<>":
		op = operator.NE
	case "<":
		op = operator.LT
	case "<=":
		op = operator.LE
	case ">":
		op = operator.GT
	case ">=":
		op = operator.GE
	default:
		return 0, p.errf("unknown comparison %q", t.text)
	}
	p.at++
	return op, nil
}
