package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it
// is reported: a p90 needs at least 100 samples, a p99 at least 1000.
const minTail = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the interpolated median (Python's statistics.median); NaN
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the default "exclusive"
// method), so spreads computed here match those computed in Python
// from the same values. With one sample all three are that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-quantile of xs (p in (0,1))
// and whether the sample supports it: at least minTail samples must
// lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s)-rank >= minTail
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
