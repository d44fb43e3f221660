package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile for it to
// be reported; with fewer it is missing.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and
// whether at least minBeyond samples lie beyond it. The median is
// always reported when there is a sample.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], p <= 50 || len(s)-1-i >= minBeyond
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one reported figure. A nil Value is a percentile with too
// few samples beyond it.
type metric struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples,omitempty"`
	Note    string   `json:"note,omitempty"`
}

func val(v float64, unit string, samples int) metric {
	return metric{Value: &v, Unit: unit, Samples: samples}
}

// pctMetric reports the p-th percentile of xs in ms, or a missing
// value when too few samples lie beyond it.
func pctMetric(xs []float64, p float64) metric {
	v, ok := percentile(xs, p)
	m := metric{Unit: "ms", Samples: len(xs)}
	if ok {
		m.Value = &v
	} else {
		m.Note = "missing: fewer than 10 samples beyond the percentile"
	}
	return m
}
