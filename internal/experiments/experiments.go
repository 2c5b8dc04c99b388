// Package experiments reproduces every table and figure of the paper's
// evaluation (§4). Each experiment has paper-scale defaults and a Scale
// knob so the test suite can run the same code at reduced size; the
// extractbench command and the bench_test.go benchmarks run them at full
// scale and print rows in the paper's format.
//
// The experiment ↔ module map lives in DESIGN.md; measured-vs-paper
// numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry methodology remarks printed under the table.
	Notes []string
}

// Print renders the table in aligned plain text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Formatting helpers matching the paper's units.

// Millis renders a duration in milliseconds.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.4f", float64(d)/float64(time.Millisecond))
}

// Hours renders a duration in hours.
func Hours(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Hours())
}

// WeeksStr renders a duration in weeks.
func WeeksStr(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Hours()/(24*7))
}

// SecondsStr renders a duration in seconds.
func SecondsStr(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// medianSeconds returns the median of xs (seconds); 0 for empty.
func medianSeconds(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
