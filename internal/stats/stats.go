// Package stats provides the small statistical and tabulation helpers used
// by the experiment harness: means, percentiles, ratios, percentage
// improvements and fixed-width text tables matching the series reported in
// the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs, or NaN for an empty slice — an empty
// sample has no median, and a silent 0 would read as a real (and
// suspiciously good) latency or slowdown.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. Used for the online scheduler's
// slowdown and solve-latency tails. An empty slice has no order statistics:
// the result is NaN, which callers must not mistake for a measurement (and
// which encoding/json refuses to serialize, so it cannot silently leak into
// machine-readable output).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// PercentileOr returns Percentile(xs, p), or fallback when xs is empty.
// Reporting paths use it to keep the empty-input NaN out of JSON (which
// cannot encode it) and CSV.
func PercentileOr(xs []float64, p, fallback float64) float64 {
	if len(xs) == 0 {
		return fallback
	}
	return Percentile(xs, p)
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ImprovementPercent returns how much better (smaller) "ours" is than
// "theirs", expressed the way the paper reports it: (theirs/ours - 1) * 100.
// A value of 22 means the competing scheme's completion time is 22% larger.
func ImprovementPercent(ours, theirs float64) float64 {
	if ours == 0 {
		return 0
	}
	return (theirs/ours - 1) * 100
}

// Series is a named sequence of values, one per x-axis point of a figure.
type Series struct {
	Name   string
	Values []float64
}

// Table is a simple column-oriented table used to print figure data: one row
// per x-axis label and one column per series.
type Table struct {
	Title     string
	XLabel    string
	XValues   []string
	SeriesSet []Series
}

// NewTable creates a table with the given title and x-axis labels.
func NewTable(title, xlabel string, xvalues []string) *Table {
	return &Table{Title: title, XLabel: xlabel, XValues: xvalues}
}

// AddSeries appends a series; its length must match the x-axis.
func (t *Table) AddSeries(name string, values []float64) error {
	if len(values) != len(t.XValues) {
		return fmt.Errorf("stats: series %q has %d values, table has %d rows", name, len(values), len(t.XValues))
	}
	t.SeriesSet = append(t.SeriesSet, Series{Name: name, Values: values})
	return nil
}

// String renders the table as fixed-width text. A series column is 16
// characters wide, or one more than its name, so that names never touch.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	// Header.
	fmt.Fprintf(&b, "%-18s", t.XLabel)
	for _, s := range t.SeriesSet {
		fmt.Fprintf(&b, "%*s", max(16, len(s.Name)+1), s.Name)
	}
	b.WriteString("\n")
	for i, x := range t.XValues {
		fmt.Fprintf(&b, "%-18s", x)
		for _, s := range t.SeriesSet {
			fmt.Fprintf(&b, "%*.2f", max(16, len(s.Name)+1), s.Values[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, s := range t.SeriesSet {
		b.WriteString("," + s.Name)
	}
	b.WriteString("\n")
	for i, x := range t.XValues {
		b.WriteString(x)
		for _, s := range t.SeriesSet {
			fmt.Fprintf(&b, ",%.6g", s.Values[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// NormalizeTo returns a copy of the table in which every series is divided,
// row by row, by the series with the given name (the paper's "ratio with
// respect to baseline" panels). It returns an error if the reference series
// is missing.
func (t *Table) NormalizeTo(reference string) (*Table, error) {
	var ref *Series
	for i := range t.SeriesSet {
		if t.SeriesSet[i].Name == reference {
			ref = &t.SeriesSet[i]
			break
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("stats: reference series %q not found", reference)
	}
	out := NewTable(t.Title+" (ratio vs "+reference+")", t.XLabel, t.XValues)
	for _, s := range t.SeriesSet {
		vals := make([]float64, len(s.Values))
		for i := range s.Values {
			vals[i] = Ratio(s.Values[i], ref.Values[i])
		}
		if err := out.AddSeries(s.Name, vals); err != nil {
			return nil, err
		}
	}
	return out, nil
}
