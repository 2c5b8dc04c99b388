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
	// j — catalog.Value.AppendText's — and verbatim[j], when set,
	// promises the text is catalog.Verbatim: it is set for every number,
	// and for a TEXT cell whose record says so (catalog.Fields). A TEXT
	// cell aliases the page the row was read from, and neither slice may
	// be kept past the call.
	AppendRow(dst []byte, i int, cells [][]byte, verbatim []bool) []byte
}

// rowWriter is where every SELECT's rows go, and the one place that
// knows which of its two sinks that is. With a RowEncoder each row is
// appended to body as bytes; without one the rows are kept as values in
// the statement's Result.Rows, carved from the block start allocates.
// Its scratch — the cells and their verbatim bits, the numbers' text and
// the record's fields — is reused from row to row, and from statement to
// statement by the Prepared that holds it.
type rowWriter struct {
	enc  RowEncoder
	body []byte
	rows int
	vals *valuesBuf // the values sink's block, for the statement running
	// narrow is the narrow charge's bound (Prepared.ExamineUpTo); 0: the
	// statement is charged what it returns. examined is the statement's
	// charge when it is not its Keys (Prepared.Examined).
	narrow   int
	examined []uint64

	cells    [][]byte
	verbatim []bool
	ends     []int
	text     []byte
	fields   [][]byte
	fieldsV  []bool // each field's verbatim bit (catalog.Fields)
}

// resultBuf serves a small SELECT — the point-query hot path — from one
// allocation: the Result header and the first few key slots share a
// block, so a single-row answer costs one object instead of two. Larger
// results spill to ordinary appends; the inline array then rides along as
// slack in an allocation the caller holds anyway. The buffer cannot be
// pooled: the Result and everything it points into are handed to the
// caller for keeps.
type resultBuf struct {
	res  Result
	keys [2]uint64
}

// valuesBuf is resultBuf for a SELECT whose rows are kept as values: the
// first few row slots and the first rows' projected values join the
// block.
type valuesBuf struct {
	resultBuf
	rows [2]catalog.Row
	vals [2]catalog.Value
	used int // vals slots consumed by earlier rows
}

// start begins a SELECT's reply with its columns and returns the Result
// the statement fills: Keys, one per row it returns or folds.
func (w *rowWriter) start(cols []string) *Result {
	var rb *resultBuf
	if w.enc != nil {
		w.body = w.enc.AppendColumns(w.body, cols)
		rb = &resultBuf{}
	} else {
		w.vals = &valuesBuf{}
		w.vals.res.Rows = w.vals.rows[:0]
		rb = &w.vals.resultBuf
	}
	rb.res.Columns, rb.res.Keys = cols, rb.keys[:0]
	return &rb.res
}

// examine returns the record of what a SELECT reads without returning,
// when the narrow charge is on and the statement can read such a row
// (want); nil otherwise, which records nothing.
func (w *rowWriter) examine(want bool) *examined {
	if !want || w.narrow <= 0 {
		return nil
	}
	return &examined{bound: w.narrow}
}

// decode returns the decode mask of a SELECT whose rows come here: the
// values sink needs every column it returns decoded, the encoder reads
// TEXT cells from the record in place (see selPlan).
func (w *rowWriter) decode(pl *selPlan) []bool {
	if w.enc != nil {
		return pl.lean
	}
	return pl.need
}

// hold returns what row will need of rec once the scan has moved past
// it: a copy for the encoder, which reads TEXT cells from it, and
// nothing for the values sink.
func (w *rowWriter) hold(rec []byte) []byte {
	if w.enc == nil {
		return nil
	}
	return append([]byte(nil), rec...)
}

// row writes the cells proj picks out of a returned row. rec, when
// non-nil, is the record the row was decoded from: the encoder reads a
// TEXT cell from it in place, with the verbatim bit the record holds, so
// the decode need not have copied it out. Every other cell is formatted
// from its value, and only a number's is claimed verbatim. The values
// sink copies the cells out of row, which the caller may reuse.
func (w *rowWriter) row(schema catalog.Schema, proj []int, row catalog.Row, rec []byte) error {
	if w.enc == nil {
		vb := w.vals
		var out catalog.Row
		if n := len(proj); len(vb.vals)-vb.used >= n {
			out = vb.vals[vb.used : vb.used+n : vb.used+n]
			vb.used += n
		} else {
			out = make(catalog.Row, n)
		}
		for i, ci := range proj {
			out[i] = row[ci]
		}
		vb.res.Rows = append(vb.res.Rows, out)
		return nil
	}
	w.cells, w.verbatim, w.ends = w.cells[:0], w.verbatim[:0], w.ends[:0]
	w.text = w.text[:0]
	inPlace := false
	for _, ci := range proj {
		if row[ci].Type == catalog.Text && rec != nil {
			inPlace = true
		} else {
			w.text = row[ci].AppendText(w.text)
		}
		w.ends = append(w.ends, len(w.text))
	}
	if inPlace {
		var err error
		if w.fields, w.fieldsV, err = catalog.Fields(schema, rec, w.fields[:0], w.fieldsV[:0]); err != nil {
			return err
		}
	}
	start := 0
	for j, ci := range proj {
		if typ := row[ci].Type; typ == catalog.Text && rec != nil {
			w.cells = append(w.cells, w.fields[ci])
			w.verbatim = append(w.verbatim, w.fieldsV[ci])
		} else {
			w.cells = append(w.cells, w.text[start:w.ends[j]])
			// A number's text is digits, sign, '.', 'e', "NaN", "Inf".
			w.verbatim = append(w.verbatim, typ == catalog.Int || typ == catalog.Float)
		}
		start = w.ends[j]
	}
	w.body = w.enc.AppendRow(w.body, w.rows, w.cells, w.verbatim)
	w.rows++
	return nil
}
