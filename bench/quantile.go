package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks, the definition Python's
// statistics.quantiles(method="inclusive") and numpy use.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// latencies unpacks the calls of the given kinds (all kinds when none is
// given) from packed latency samples into sorted microseconds.
func latencies(lat []uint32, kinds ...kind) []float64 {
	var want [nKinds]bool
	for k := range want {
		want[k] = len(kinds) == 0
	}
	for _, k := range kinds {
		want[k] = true
	}
	out := make([]float64, 0, len(lat))
	for _, l := range lat {
		if want[kind(l>>idBits)] {
			out = append(out, float64(l&latMask)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// ratio is num/den, 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
