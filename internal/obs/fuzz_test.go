package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"testing"
)

// fuzzBounds is the histogram layout of the round-trip half of
// FuzzParseProm.
var fuzzBounds = []float64{0.001, 0.01, 0.1, 1}

// FuzzParseProm has two halves. Arbitrary text must either parse or fail
// with a *ParseError, never panic. And the exposition of a registry
// holding a fuzz-chosen counter, gauge and histogram observations must
// parse back to exactly the values put in, with the bucket counts and
// sum recomputed naively from the observations.
func FuzzParseProm(f *testing.F) {
	f.Add([]byte("# HELP mct_x_total h\n# TYPE mct_x_total counter\nmct_x_total 1\n"), 42.0, 3.0, []byte{})
	f.Add([]byte(`mct_x_bucket{le="+Inf",path="a\"b\\c"} 2`+"\n"), 0.0, -1.5, obsBytes(0.0005, 0.005, 5))
	f.Add([]byte("mct_x_total notanumber\n"), math.Inf(1), math.NaN(), obsBytes(math.NaN(), math.Inf(-1)))
	f.Add([]byte("# NOPE\n{}\n"), 1e300, -0.0, obsBytes(1, 0.1, 0.01, 0.001))
	f.Add([]byte(`a{b="\`), 0.1, 0.2, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, text []byte, counter, gauge float64, observations []byte) {
		samples, err := ParseProm(bytes.NewReader(text))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Line < 1 {
				t.Fatalf("ParseProm(%q) failed with %T %v, want a *ParseError", text, err, err)
			}
		} else {
			for _, s := range samples {
				if s.Name == "" {
					t.Fatalf("ParseProm(%q) accepted a sample without a name", text)
				}
			}
		}

		r := NewRegistry()
		r.Counter("mct_fuzz_total", "Fuzz counter.", func() float64 { return counter })
		r.Gauge("mct_fuzz_level", "Fuzz gauge.", func() float64 { return gauge })
		h := r.Histogram("mct_fuzz_seconds", "Fuzz histogram.", fuzzBounds)
		var vals []float64
		for len(observations) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(observations)))
			observations = observations[8:]
		}
		for _, v := range vals {
			h.Observe(v)
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParseProm(&buf)
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, buf.String())
		}

		want := []Sample{
			{Name: "mct_fuzz_total", Value: counter},
			{Name: "mct_fuzz_level", Value: gauge},
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		for i := 0; i <= len(fuzzBounds); i++ {
			le, n := "+Inf", len(vals)
			if i < len(fuzzBounds) {
				le, n = strconv.FormatFloat(fuzzBounds[i], 'g', -1, 64), 0
				for _, v := range vals {
					if v <= fuzzBounds[i] {
						n++
					}
				}
			}
			want = append(want, Sample{Name: "mct_fuzz_seconds_bucket", Labels: map[string]string{"le": le}, Value: float64(n)})
		}
		want = append(want,
			Sample{Name: "mct_fuzz_seconds_sum", Value: sum},
			Sample{Name: "mct_fuzz_seconds_count", Value: float64(len(vals))})

		if len(got) != len(want) {
			t.Fatalf("parsed %d samples, want %d:\n%s", len(got), len(want), buf.String())
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Labels["le"] != w.Labels["le"] || len(g.Labels) != len(w.Labels) || !sameFloat(g.Value, w.Value) {
				t.Errorf("sample %d = %+v, want %+v", i, g, w)
			}
		}
	})
}

// obsBytes packs observations the way FuzzParseProm unpacks them.
func obsBytes(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// sameFloat is bit-exact equality that also treats any two NaNs as equal
// (the exposition writes every NaN as "NaN").
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
