package sqlmini

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the statement-distribution layer the cluster router
// builds on: extracting the partition key a statement pins (so point
// queries and single-key writes route to exactly one owner shard),
// rewriting aggregate lists into shard-local partials a front-door
// merge executor can recombine, and rendering statements back to SQL so
// rewritten shard queries and per-owner INSERT slices stay inside the
// same grammar every shard already speaks.

// PKEqual reports the primary-key value a WHERE clause pins, if any: the
// first equality conjunct on key (case-insensitive) with an integer
// literal. A statement carrying such a conjunct can touch at most the
// one tuple with that key, so a partitioned cluster routes it to the
// key's owner shard alone.
func PKEqual(w *Where, key string) (int64, bool) {
	if w == nil {
		return 0, false
	}
	for _, c := range w.Conjuncts {
		if c.Op == OpEq && c.Value.Kind == IntLit && strings.EqualFold(c.Column, key) {
			return c.Value.Int, true
		}
	}
	return 0, false
}

// PKBounds reports the primary-key range a WHERE clause bounds: the
// tightest inclusive lower and upper bounds its comparisons on key
// (case-insensitive) with integer literals set. hasLo or hasHi is false
// when that side is open. A strict bound that has no inclusive form in
// an int64 (key > MaxInt64, key < MinInt64) is left out, which only
// widens the range.
func PKBounds(w *Where, key string) (lo, hi int64, hasLo, hasHi bool) {
	if w == nil {
		return 0, 0, false, false
	}
	for _, c := range w.Conjuncts {
		if c.Value.Kind != IntLit || !strings.EqualFold(c.Column, key) {
			continue
		}
		v := c.Value.Int
		switch c.Op {
		case OpGt:
			if v == math.MaxInt64 {
				continue
			}
			v++
			fallthrough
		case OpGe:
			if !hasLo || v > lo {
				lo, hasLo = v, true
			}
		case OpLt:
			if v == math.MinInt64 {
				continue
			}
			v--
			fallthrough
		case OpLe:
			if !hasHi || v < hi {
				hi, hasHi = v, true
			}
		case OpEq:
			if !hasLo || v > lo {
				lo, hasLo = v, true
			}
			if !hasHi || v < hi {
				hi, hasHi = v, true
			}
		}
	}
	return lo, hi, hasLo, hasHi
}

// AggregateName returns the result-column name the engine gives an
// aggregate, so a merge executor recombining shard partials labels the
// final row exactly as a single node would.
func AggregateName(a Aggregate) string {
	if a.Column == "" {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", strings.ToLower(a.Func.String()), a.Column)
}

// CompareCells orders two stringified result cells the way the engine
// orders the underlying values: integers numerically, then floats, then
// bytewise. Both consumers recombining shard results (the router's
// ORDER BY merge and its MIN/MAX partial folding) must sort cells
// identically, so they both call this. Neither string escapes (the last
// step is the comparison operators, not strings.Compare, which the
// compiler cannot see through), so a caller holding bytes converts them
// for the call without allocating.
func CompareCells(a, b string) int {
	if ai, aerr := strconv.ParseInt(a, 10, 64); aerr == nil {
		if bi, berr := strconv.ParseInt(b, 10, 64); berr == nil {
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
	}
	if af, aerr := strconv.ParseFloat(a, 64); aerr == nil {
		if bf, berr := strconv.ParseFloat(b, 64); berr == nil {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			}
			return 0
		}
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// PartialAggregates rewrites an aggregate list into the shard-local
// partial list a scatter-gather executor sends to every owner shard,
// plus, per original aggregate, the indices of its partials in that
// list:
//
//	COUNT(*)          → COUNT(*)                  (combine: sum)
//	SUM(c)            → SUM(c)                    (combine: sum)
//	AVG(c)            → SUM(c), COUNT(*)          (combine: Σsum/Σcount)
//	MIN(c) / MAX(c)   → MIN(c)/MAX(c), COUNT(*)   (combine: min/max over
//	                                               shards with count>0)
//
// MIN and MAX carry a COUNT(*) partial because a shard whose slice
// matches no rows reports the engine's empty-aggregate zero, which must
// not pollute the global extreme. Duplicate partials are shared: the
// engine's accumulators are mergeable per chunk, so each shard computes
// each distinct partial once over its ~1/N slice.
func PartialAggregates(aggs []Aggregate) (partials []Aggregate, src [][]int) {
	index := make(map[Aggregate]int)
	add := func(a Aggregate) int {
		if i, ok := index[a]; ok {
			return i
		}
		index[a] = len(partials)
		partials = append(partials, a)
		return len(partials) - 1
	}
	src = make([][]int, len(aggs))
	countAll := Aggregate{Func: AggCount}
	for i, a := range aggs {
		switch a.Func {
		case AggAvg:
			src[i] = []int{add(Aggregate{Func: AggSum, Column: a.Column}), add(countAll)}
		case AggMin, AggMax:
			src[i] = []int{add(a), add(countAll)}
		default: // COUNT, SUM
			src[i] = []int{add(a)}
		}
	}
	return partials, src
}

// QuoteLiteral renders a literal as a SQL token the lexer parses back to
// the same literal; string quotes escape by doubling, mirroring lexString.
func QuoteLiteral(l Literal) string {
	var sb strings.Builder
	writeLiteral(&sb, l)
	return sb.String()
}

// writeLiteral appends l as QuoteLiteral renders it. A float keeps a '.'
// and never takes an exponent ('f' format, shortest digits that round
// trip), so it lexes back as a number with a '.', which the parser reads
// as the same FloatLit: 2.0 stays "2.0", not the INT 2, and 2500000.5
// stays "2500000.5", not "2.5000005e+06", which the lexer rejects.
func writeLiteral(sb *strings.Builder, l Literal) {
	var num [32]byte
	switch l.Kind {
	case IntLit:
		sb.Write(strconv.AppendInt(num[:0], l.Int, 10))
	case FloatLit:
		b := strconv.AppendFloat(num[:0], l.Float, 'f', -1, 64)
		if bytes.IndexByte(b, '.') < 0 {
			b = append(b, ".0"...)
		}
		sb.Write(b)
	case StringLit:
		sb.WriteByte('\'')
		str := l.Str
		for {
			q := strings.IndexByte(str, '\'')
			if q < 0 {
				break
			}
			sb.WriteString(str[:q+1])
			sb.WriteByte('\'')
			str = str[q+1:]
		}
		sb.WriteString(str)
		sb.WriteByte('\'')
	default:
		sb.WriteString(l.String())
	}
}

// Render renders a parsed SELECT, INSERT, UPDATE, or DELETE back to SQL
// the parser accepts — the inverse the router needs to ship rewritten
// statements (partial aggregates, injected ORDER BY columns, per-owner
// INSERT slices) to shards over the same /query surface clients use.
// Other statement kinds (DDL) are never rewritten and panic.
func Render(stmt Statement) string {
	var sb strings.Builder
	switch s := stmt.(type) {
	case *Select:
		renderSelect(&sb, s)
	case *Insert:
		// One buffer for the whole statement, sized up front: 24 bytes
		// a literal cover an int, a string's quotes and most floats.
		n := len("INSERT INTO  VALUES ") + len(s.Table)
		for _, row := range s.Rows {
			n += len("(), ")
			for _, v := range row {
				n += len(", ") + len(v.Str) + 24
			}
		}
		sb.Grow(n)
		sb.WriteString("INSERT INTO ")
		sb.WriteString(s.Table)
		sb.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, v := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				writeLiteral(&sb, v)
			}
			sb.WriteByte(')')
		}
	case *Update:
		sb.WriteString("UPDATE ")
		sb.WriteString(s.Table)
		sb.WriteString(" SET ")
		for i, a := range s.Set {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.Column)
			sb.WriteString(" = ")
			writeLiteral(&sb, a.Value)
		}
		renderWhere(&sb, s.Where)
	case *Delete:
		sb.WriteString("DELETE FROM ")
		sb.WriteString(s.Table)
		renderWhere(&sb, s.Where)
	default:
		panic(fmt.Sprintf("sqlmini: Render does not support %T", stmt))
	}
	return sb.String()
}

func renderSelect(sb *strings.Builder, s *Select) {
	sb.WriteString("SELECT ")
	switch {
	case len(s.Aggregates) > 0:
		for i, a := range s.Aggregates {
			if i > 0 {
				sb.WriteString(", ")
			}
			if a.Column == "" {
				sb.WriteString("COUNT(*)")
			} else {
				sb.WriteString(a.Func.String())
				sb.WriteByte('(')
				sb.WriteString(a.Column)
				sb.WriteByte(')')
			}
		}
	case len(s.Columns) > 0:
		sb.WriteString(strings.Join(s.Columns, ", "))
	default:
		sb.WriteByte('*')
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.Table)
	renderWhere(sb, s.Where)
	if s.Order != nil {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(s.Order.Column)
		if s.Order.Desc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.Itoa(s.Limit))
	}
}

func renderWhere(sb *strings.Builder, w *Where) {
	if w == nil || len(w.Conjuncts) == 0 {
		return
	}
	sb.WriteString(" WHERE ")
	for i, c := range w.Conjuncts {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		sb.WriteString(c.Column)
		sb.WriteByte(' ')
		sb.WriteString(c.Op.String())
		sb.WriteByte(' ')
		writeLiteral(sb, c.Value)
	}
}
