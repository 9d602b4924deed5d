package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p < 1) of values by the
// nearest-rank rule on a sorted copy: the smallest value with at least
// p·n values at or below it. It returns 0 for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 50th percentile with the two middle values of an even
// sample averaged, the form `statistics.median` uses.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowChunks is the number of equal sub-windows a measured window's
// latencies are summarised over.
const windowChunks = 5

// chunkedPercentile returns the median, over the windowChunks equal
// sub-windows of [from, from+length), of the p-th percentile of the
// values due inside each (sub-windows without a value are left out). The
// host stalls for 100–400 ms a few times a minute; taken over the whole
// window such a stall is most of what a p90 reads, here it moves one
// value in five.
func chunkedPercentile(due []time.Duration, values []float64, from, length time.Duration, p float64) float64 {
	chunks := make([][]float64, windowChunks)
	for i, v := range values {
		k := int((due[i] - from) * windowChunks / length)
		k = max(0, min(k, windowChunks-1))
		chunks[k] = append(chunks[k], v)
	}
	var ps []float64
	for _, c := range chunks {
		if len(c) > 0 {
			ps = append(ps, percentile(c, p))
		}
	}
	return median(ps)
}

// supportsPercentile reports whether a sample of n values has at least
// ten values beyond its p-th percentile — the rule that decides which
// tail percentile a window may report.
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p)+1e-9 >= 10 // the epsilon absorbs 1-0.9 != 0.1 in binary
}

// quartiles returns the first and third quartile of values the way
// Python's statistics.quantiles(values, n=4) does (exclusive method):
// the acceptance check takes their distance as a metric's spread.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k·(n+1)/4 on the 1-based sorted sample; the index is
		// clamped to the sample's ends before the interpolation weight is
		// taken, exactly as the Python routine does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of values as a share of
// their median; 0 when the median is 0.
func spreadShare(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}

// ratio is a/b, 0 when b is 0: a per-operation metric of a workload
// that ran no such operation reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
