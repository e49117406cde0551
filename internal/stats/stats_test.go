package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatioAndPct(t *testing.T) {
	if Ratio(1, 0) != 0 || Pct(1, 0) != 0 {
		t.Error("division by zero should yield 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio(3,4) != 0.75")
	}
	if Pct(3, 4) != 75 {
		t.Error("Pct(3,4) != 75")
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Error("empty slices should yield 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %g, want 2", got)
	}
	// GeoMean of identical values is that value.
	if got := GeoMean([]float64{1.05, 1.05, 1.05}); math.Abs(got-1.05) > 1e-12 {
		t.Errorf("GeoMean of constants = %g", got)
	}
	// Non-positive entries must not produce NaN.
	if got := GeoMean([]float64{0, 2}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("GeoMean with zero produced %g", got)
	}
}

func TestGeoMeanLeqMean(t *testing.T) {
	// AM-GM inequality as a property test over positive inputs.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return GeoMean(xs) <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, v := range []uint64{0, 5, 9, 10, 25, 39, 40, 1000} {
		h.Add(v)
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Bucket(0) != 3 || h.Bucket(1) != 1 || h.Bucket(2) != 1 || h.Bucket(3) != 1 {
		t.Errorf("buckets = %d %d %d %d", h.Bucket(0), h.Bucket(1), h.Bucket(2), h.Bucket(3))
	}
	if h.Overflow() != 2 {
		t.Errorf("Overflow = %d", h.Overflow())
	}
	if p := h.Percentile(0.5); p != 20 {
		t.Errorf("P50 = %d, want 20", p)
	}
	if p := h.Percentile(1.0); p != 40 {
		t.Errorf("P100 = %d, want 40 (overflow boundary)", p)
	}
	if NewHistogram(1, 1).Percentile(0.5) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0, 10) did not panic")
		}
	}()
	NewHistogram(0, 10)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "v1", "v2")
	tb.AddRowF("alpha", 1.5, 2.25)
	tb.AddRow("b", "x") // short row padded
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.50") || !strings.Contains(out, "2.25") {
		t.Errorf("missing formatted cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "benchmark", "speedup")
	tb.AddRow("tomcatv", "1.325")
	tb.AddRow("go", "1.001")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// All rows should have equal rendered width.
	w := len(lines[0])
	for _, l := range lines {
		if len(l) != w {
			t.Errorf("ragged table:\n%s", tb.String())
			break
		}
	}
}

func TestSortRowsByLabel(t *testing.T) {
	tb := NewTable("", "name", "v")
	tb.AddRow("zeta", "1")
	tb.AddRow("MEAN", "2")
	tb.AddRow("alpha", "3")
	tb.SortRowsByLabel("MEAN")
	out := tb.String()
	ia, iz, im := strings.Index(out, "alpha"), strings.Index(out, "zeta"), strings.Index(out, "MEAN")
	if !(ia < iz && iz < im) {
		t.Errorf("sort order wrong:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "name", "v")
	tb.AddRow("plain", "1.5")
	tb.AddRow("with,comma", `quote"inside`)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "name,v" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `"with,comma","quote""inside"` {
		t.Errorf("quoting wrong: %q", lines[2])
	}
	if tb.Title() != "T" {
		t.Error("Title accessor wrong")
	}
}

// TestHistogramPercentileValidation pins the clamp semantics directly:
// NaN and p <= 0 answer like the minimum sample, p >= 1 like the
// maximum — never the overflow boundary unless samples overflowed.
func TestHistogramPercentileValidation(t *testing.T) {
	h := NewHistogram(100, 1)
	for _, v := range []uint64{10, 20, 30} {
		h.Add(v)
	}
	if got := h.Percentile(math.NaN()); got != 11 {
		t.Errorf("NaN percentile = %d, want the min bucket bound 11", got)
	}
	if got := h.Percentile(-3); got != 11 {
		t.Errorf("p=-3 percentile = %d, want 11", got)
	}
	if got := h.Percentile(2); got != 31 {
		t.Errorf("p=2 percentile = %d, want the max bucket bound 31, not the overflow bound", got)
	}
	if got := h.Percentile(1); got != 31 {
		t.Errorf("p=1 percentile = %d, want 31", got)
	}
}
