package main

import "sort"

// percentile returns the nearest-rank q-quantile of xs, 0 if xs is
// empty. It sorts a copy.
func percentile(xs []uint64, q float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the median of xs (the mean of the middle pair for an
// even count), 0 if xs is empty. It sorts a copy.
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

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}
