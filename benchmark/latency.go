package main

import (
	"sort"
	"time"

	"github.com/querygraph/querygraph/internal/hist"
)

// latencies records one worker's op timings. Every sample is kept, so
// the reported quantiles are exact; the log-linear histogram shared with
// qload and /v1/metrics is filled alongside and must agree with them
// within its stated 1/hist.Sub relative error (checked by the tests).
// Exact quantiles matter here: at the ~15µs search latencies of this
// world a histogram bucket is 7% wide, wider than the bounds the
// benchmark gates on.
type latencies struct {
	samples []time.Duration
	h       hist.Hist
}

func (l *latencies) record(d time.Duration) {
	l.samples = append(l.samples, d)
	l.h.Record(d)
}

func (l *latencies) merge(o *latencies) {
	l.samples = append(l.samples, o.samples...)
	l.h.Merge(&o.h)
}

func (l *latencies) count() int { return len(l.samples) }

// quantile returns the sample at rank floor(q·n) of the sorted samples —
// the same rank convention hist.Quantile uses, so the two agree up to the
// histogram's bucket width.
func (l *latencies) quantile(q float64) time.Duration {
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	if !sort.SliceIsSorted(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] }) {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	}
	rank := int(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	return l.samples[rank]
}

// beyond is how many samples lie strictly above quantile q: the tail a
// reported percentile rests on.
func (l *latencies) beyond(q float64) int {
	v := l.quantile(q)
	i := sort.Search(len(l.samples), func(i int) bool { return l.samples[i] > v })
	return len(l.samples) - i
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float sample (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
