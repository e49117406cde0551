// Package stats provides the counters, ratio helpers, summary statistics,
// and plain-text table formatting used by every experiment in the
// reproduction. Keeping formatting here means each figure/table prints
// through one code path and EXPERIMENTS.md rows are uniform.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Ratio returns num/den as a float, and 0 when den is 0. All hit rates and
// accuracies in the simulator route through this so empty runs are safe.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Pct returns num/den as a percentage (0 when den is 0).
func Pct(num, den uint64) float64 { return 100 * Ratio(num, den) }

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny positive value so one degenerate benchmark cannot NaN a
// suite average; speedup aggregation in the paper's style uses this.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Min returns the smallest element of xs (0 for empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs (0 for empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Histogram is a fixed-bucket counter over a uint64 domain, used for
// per-set conflict heat maps and latency distributions.
type Histogram struct {
	buckets []uint64
	width   uint64
	over    uint64
	total   uint64
}

// NewHistogram creates a histogram with n buckets each covering width
// consecutive values; samples beyond n*width land in an overflow bucket.
func NewHistogram(n int, width uint64) *Histogram {
	if n <= 0 || width == 0 {
		panic("stats: NewHistogram requires n > 0 and width > 0")
	}
	return &Histogram{buckets: make([]uint64, n), width: width}
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	h.total++
	i := v / h.width
	if i >= uint64(len(h.buckets)) {
		h.over++
		return
	}
	h.buckets[i]++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Overflow returns the count of samples beyond the last bucket.
func (h *Histogram) Overflow() uint64 { return h.over }

// Percentile returns the smallest value v such that at least p (0..1) of
// samples are <= v, in units of bucket upper bounds. Overflowed samples
// report the overflow boundary.
//
// The quantile follows loadgen.Percentile's nearest-rank rule — rank
// ceil(p·n), so the two packages agree on shared sample sets — and is
// validated the same way: NaN and p <= 0 clamp to the first sample's
// bucket, p >= 1 to the last. (Previously NaN and out-of-range p were
// accepted silently: p > 1 produced a target beyond the sample count and
// walked off the end to the overflow boundary even with no overflow.)
func (h *Histogram) Percentile(p float64) uint64 {
	if h.total == 0 {
		return 0
	}
	var target uint64
	switch {
	case math.IsNaN(p) || p <= 0:
		target = 1
	case p >= 1:
		target = h.total
	default:
		target = uint64(math.Ceil(p * float64(h.total)))
		if target == 0 {
			target = 1
		}
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return uint64(i+1) * h.width
		}
	}
	return uint64(len(h.buckets)) * h.width
}

// Table accumulates rows of labeled values and renders an aligned
// plain-text table — the output format for every reproduced figure/table.
type Table struct {
	title   string
	columns []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{title: title, columns: columns}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowF appends a row with a label followed by %0.2f-formatted values.
func (t *Table) AddRowF(label string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.2f", v))
	}
	t.AddRow(cells...)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with a title line, a header, and aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	sep := make([]string, len(t.columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// SortRowsByLabel orders data rows alphabetically by their first cell,
// keeping any row whose label appears in keepLast (e.g. "mean") at the end
// in the order given.
func (t *Table) SortRowsByLabel(keepLast ...string) {
	lastRank := make(map[string]int, len(keepLast))
	for i, l := range keepLast {
		lastRank[l] = i
	}
	sort.SliceStable(t.rows, func(i, j int) bool {
		li, lj := t.rows[i][0], t.rows[j][0]
		ri, iLast := lastRank[li]
		rj, jLast := lastRank[lj]
		switch {
		case iLast && jLast:
			return ri < rj
		case iLast:
			return false
		case jLast:
			return true
		default:
			return li < lj
		}
	})
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// CSV renders the table as RFC-4180-ish CSV (header row then data rows;
// cells containing commas or quotes are quoted). Experiment tooling uses
// this for machine-readable exports of every figure.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
