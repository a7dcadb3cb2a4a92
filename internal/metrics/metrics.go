// Package metrics provides the small statistics toolkit the experiment
// harness uses: a chi-square uniformity test (for Lemma 11's "IDs are
// u.a.r." claim) and a column-aligned table printer.
package metrics

import "math"

// ChiSquareUniform computes the chi-square statistic of bucket counts
// against the uniform expectation, and reports whether it is below the
// critical value at significance ≈0.01 (using the normal approximation for
// k−1 degrees of freedom, valid for k ≥ 8).
func ChiSquareUniform(counts []int) (stat float64, uniform bool) {
	k := len(counts)
	if k < 2 {
		return 0, true
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, true
	}
	want := float64(total) / float64(k)
	for _, c := range counts {
		d := float64(c) - want
		stat += d * d / want
	}
	// Critical value ≈ df + 2.33·sqrt(2·df) (normal approx at p=0.01).
	df := float64(k - 1)
	crit := df + 2.33*math.Sqrt(2*df)
	return stat, stat <= crit
}

// Table is a tiny column-aligned table printer for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Append adds a row.
func (t *Table) Append(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b []byte
	pad := func(s string, w int) {
		b = append(b, s...)
		for j := len(s); j < w+2; j++ {
			b = append(b, ' ')
		}
	}
	for i, h := range t.Header {
		pad(h, widths[i])
	}
	b = append(b, '\n')
	for i := range t.Header {
		for j := 0; j < widths[i]; j++ {
			b = append(b, '-')
		}
		b = append(b, ' ', ' ')
	}
	b = append(b, '\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				pad(c, widths[i])
			}
		}
		b = append(b, '\n')
	}
	return string(b)
}
