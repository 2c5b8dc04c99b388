package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseScript parses a sequence of semicolon-separated statements, as
// found in schema/load files. Empty statements (stray semicolons) are
// skipped.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.atEOF() {
			return out, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", len(out)+1, err)
		}
		out = append(out, stmt)
		if p.atEOF() {
			return out, nil
		}
		if !p.acceptSymbol(";") {
			return nil, fmt.Errorf("sqlmini: expected ';' between statements, got %s", p.peek())
		}
	}
}

// Parse parses one SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlmini: unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// acceptKeyword consumes the next token if it is the given keyword
// (case-insensitive) and reports whether it did.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlmini: expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("sqlmini: expected %q, got %s", sym, p.peek())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlmini: expected identifier, got %s", t)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	if p.acceptKeyword("EXPLAIN") {
		if !p.acceptKeyword("SELECT") {
			return nil, fmt.Errorf("sqlmini: EXPLAIN supports SELECT only, got %s", p.peek())
		}
		stmt, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.(*Select).Explain = true
		return stmt, nil
	}
	switch {
	case p.acceptKeyword("CREATE"):
		return p.parseCreate()
	case p.acceptKeyword("DROP"):
		return p.parseDrop()
	case p.acceptKeyword("INSERT"):
		return p.parseInsert()
	case p.acceptKeyword("SELECT"):
		return p.parseSelect()
	case p.acceptKeyword("UPDATE"):
		return p.parseUpdate()
	case p.acceptKeyword("DELETE"):
		return p.parseDelete()
	default:
		return nil, fmt.Errorf("sqlmini: expected statement, got %s", p.peek())
	}
}

func (p *parser) parseCreate() (Statement, error) {
	if p.acceptKeyword("INDEX") {
		return p.parseCreateIndex()
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typeName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		col := ColumnDef{Name: name, TypeName: typeName}
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		}
		cols = append(cols, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Table: table, Columns: cols}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if p.acceptKeyword("INDEX") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name, Table: table}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Table: table}, nil
}

func (p *parser) parseCreateIndex() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Column: col}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	// Every row is a window of one backing array, sized from the
	// tokens up to the end of the statement: an upper bound, since a
	// malformed list fails before it is reached.
	nrows, nlits := p.valuesBound()
	lits := make([]Literal, 0, nlits)
	rows := make([][]Literal, 0, nrows)
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		first := len(lits)
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			lits = append(lits, lit)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		rows = append(rows, lits[first:len(lits):len(lits)])
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return &Insert{Table: table, Rows: rows}, nil
}

// valuesBound counts the '(' symbols and the literal tokens from the
// parser's position to the end of the statement (a ';' or the end of
// input): at least the rows and the literals a VALUES list holds.
func (p *parser) valuesBound() (rows, lits int) {
	for _, t := range p.toks[p.pos:] {
		switch {
		case t.kind == tokNumber || t.kind == tokString:
			lits++
		case t.kind == tokSymbol && t.text == "(":
			rows++
		case t.kind == tokEOF || t.kind == tokSymbol && t.text == ";":
			return rows, lits
		}
	}
	return rows, lits
}

// aggFuncs maps function names to AggFunc values.
var aggFuncs = map[string]AggFunc{
	"COUNT": AggCount,
	"SUM":   AggSum,
	"AVG":   AggAvg,
	"MIN":   AggMin,
	"MAX":   AggMax,
}

func (p *parser) parseSelect() (Statement, error) {
	sel := &Select{Limit: -1}
	if p.acceptSymbol("*") {
		sel.Columns = nil
	} else {
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if fn, isAgg := aggFuncs[strings.ToUpper(name)]; isAgg && p.acceptSymbol("(") {
				agg := Aggregate{Func: fn}
				if p.acceptSymbol("*") {
					if fn != AggCount {
						return nil, fmt.Errorf("sqlmini: %v(*) is not valid", fn)
					}
				} else {
					col, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					agg.Column = col
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				sel.Aggregates = append(sel.Aggregates, agg)
			} else {
				sel.Columns = append(sel.Columns, name)
			}
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if len(sel.Aggregates) > 0 && len(sel.Columns) > 0 {
			return nil, fmt.Errorf("sqlmini: cannot mix aggregates and plain columns without GROUP BY")
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sel.Table = table
	if sel.Where, err = p.parseOptionalWhere(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ob := &OrderBy{Column: col}
		if p.acceptKeyword("DESC") {
			ob.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		if len(sel.Aggregates) > 0 {
			return nil, fmt.Errorf("sqlmini: ORDER BY with aggregates is not supported")
		}
		sel.Order = ob
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sqlmini: expected LIMIT count, got %s", t)
		}
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sqlmini: bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	var sets []Assignment
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokOp || t.text != "=" {
			return nil, fmt.Errorf("sqlmini: expected '=', got %s", t)
		}
		p.pos++
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		sets = append(sets, Assignment{Column: col, Value: lit})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	where, err := p.parseOptionalWhere()
	if err != nil {
		return nil, err
	}
	return &Update{Table: table, Set: sets, Where: where}, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	where, err := p.parseOptionalWhere()
	if err != nil {
		return nil, err
	}
	return &Delete{Table: table, Where: where}, nil
}

func (p *parser) parseOptionalWhere() (*Where, error) {
	if !p.acceptKeyword("WHERE") {
		return nil, nil
	}
	w := &Where{}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.acceptKeyword("BETWEEN") {
			lo, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			w.Conjuncts = append(w.Conjuncts,
				Comparison{Column: col, Op: OpGe, Value: lo},
				Comparison{Column: col, Op: OpLe, Value: hi})
		} else {
			t := p.peek()
			if t.kind != tokOp {
				return nil, fmt.Errorf("sqlmini: expected comparison operator, got %s", t)
			}
			p.pos++
			op, err := parseOp(t.text)
			if err != nil {
				return nil, err
			}
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			w.Conjuncts = append(w.Conjuncts, Comparison{Column: col, Op: op, Value: lit})
		}
		if p.acceptKeyword("AND") {
			continue
		}
		break
	}
	return w, nil
}

func parseOp(s string) (CmpOp, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("sqlmini: unknown operator %q", s)
	}
}

func (p *parser) parseLiteral() (Literal, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		return numberLiteral(t.text)
	case tokString:
		p.pos++
		return Literal{Kind: StringLit, Str: t.text}, nil
	default:
		return Literal{}, fmt.Errorf("sqlmini: expected literal, got %s", t)
	}
}
