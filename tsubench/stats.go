package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// timing summarizes one set of durations as the report needs it: the
// median, the highest percentile with at least ten samples beyond it,
// and the sample count.
type timing struct {
	sorted []time.Duration
}

func newTiming(ds []time.Duration) timing {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return timing{sorted: s}
}

func (t timing) n() int { return len(t.sorted) }

// pct is the nearest-rank p-quantile (0 < p < 1); zero when empty.
func (t timing) pct(p float64) time.Duration {
	if len(t.sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(t.sorted)))) - 1
	return t.sorted[min(max(i, 0), len(t.sorted)-1)]
}

// tail returns the highest of the reported percentiles that has at
// least ten samples above its rank, or ok=false when none has.
func (t timing) tail() (p float64, ok bool) {
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.9, 0.5} {
		if t.n()-int(math.Ceil(p*float64(t.n()))) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// describe renders the median, the tail percentile and the count.
func (t timing) describe(unit time.Duration, suffix string) string {
	s := fmt.Sprintf("p50 %.4g%s", float64(t.pct(0.5))/float64(unit), suffix)
	if p, ok := t.tail(); ok && p > 0.5 {
		s += fmt.Sprintf(", p%g %.4g%s", p*100, float64(t.pct(p))/float64(unit), suffix)
	}
	return s + fmt.Sprintf(", n=%d", t.n())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0, so that no metric is NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median of xs (the mean of the middle two when even);
// zero when empty.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// groupedMedian is the median of whole-unit readings treated as grouped
// data: a reading v stands for the interval [v-0.5, v+0.5), and the
// median interpolates inside its interval, so a shift of less than one
// unit still moves the figure. Zero when empty.
func groupedMedian(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	half := float64(len(s)) / 2
	m := s[int(half)]
	below := sort.Search(len(s), func(i int) bool { return s[i] >= m })
	at := sort.Search(len(s), func(i int) bool { return s[i] > m }) - below
	return float64(m) - 0.5 + (half-float64(below))/float64(at)
}
