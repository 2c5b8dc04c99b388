package engine

import "repro/internal/catalog"

// A RowEncoder writes a SELECT's reply while the statement runs
// (Prepared.ExecInto): AppendColumns once, then AppendRow for each
// returned row in order, each appending to the reply body and returning
// it. A row goes from the record the scan read straight into the body;
// it is never held as values.
type RowEncoder interface {
	// AppendColumns appends the reply's head, which names the columns.
	AppendColumns(dst []byte, cols []string) []byte
	// AppendRow appends returned row i. cells[j] is the text of its cell
	// j — catalog.Value.AppendText's — and types[j] that cell's type. A
	// TEXT cell aliases the page the row was read from, and neither
	// slice may be kept past the call.
	AppendRow(dst []byte, i int, cells [][]byte, types []catalog.Type) []byte
}

// rowWriter drives a RowEncoder for one statement. Its scratch — the
// cells, their types, the numbers' text and the record's fields — is
// reused from row to row, and from statement to statement by the
// Prepared that holds it.
type rowWriter struct {
	enc  RowEncoder
	body []byte
	rows int

	cells  [][]byte
	types  []catalog.Type
	ends   []int
	text   []byte
	fields [][]byte
}

func (w *rowWriter) columns(cols []string) { w.body = w.enc.AppendColumns(w.body, cols) }

// row writes the cells proj picks out of a returned row. rec, when
// non-nil, is the record the row was decoded from: a TEXT cell is read
// from it in place, so the decode need not have copied it out. Every
// other cell is formatted from its value.
func (w *rowWriter) row(schema catalog.Schema, proj []int, row catalog.Row, rec []byte) error {
	w.cells, w.types, w.ends = w.cells[:0], w.types[:0], w.ends[:0]
	w.text = w.text[:0]
	inPlace := false
	for _, ci := range proj {
		typ := row[ci].Type
		if typ == catalog.Text && rec != nil {
			inPlace = true
		} else {
			w.text = row[ci].AppendText(w.text)
		}
		w.types = append(w.types, typ)
		w.ends = append(w.ends, len(w.text))
	}
	if inPlace {
		var err error
		if w.fields, err = catalog.Fields(schema, rec, w.fields[:0]); err != nil {
			return err
		}
	}
	start := 0
	for j, ci := range proj {
		if w.types[j] == catalog.Text && rec != nil {
			w.cells = append(w.cells, w.fields[ci])
		} else {
			w.cells = append(w.cells, w.text[start:w.ends[j]])
		}
		start = w.ends[j]
	}
	w.body = w.enc.AppendRow(w.body, w.rows, w.cells, w.types)
	w.rows++
	return nil
}

// result moves what a computed SELECT — an aggregate's summary row, an
// EXPLAIN plan — put in res.Rows into the reply, as though the statement
// had written it there itself.
func (w *rowWriter) result(res *Result) error {
	w.columns(res.Columns)
	for _, r := range res.Rows {
		proj := make([]int, len(r))
		for i := range proj {
			proj[i] = i
		}
		if err := w.row(catalog.Schema{}, proj, r, nil); err != nil {
			return err
		}
	}
	res.Rows = nil
	return nil
}
