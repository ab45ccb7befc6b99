package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer, and one slow op decides the number.
const minTail = 10

// sample is one timed op with its cost class.
type sample struct {
	ms    float64
	class string
}

// pctl is a reported percentile of a latency sample.
type pctl struct {
	Value float64 `json:"value"`
	// Tail is the number of samples beyond the percentile's rank.
	Tail int `json:"tail"`
	// OK is false when Tail < minTail; the value is then not reported.
	OK bool `json:"ok"`
	// Boundary is set when the rank sits where one cost class gives way to
	// another, so a small change in the class mix moves the value a lot.
	Boundary bool `json:"boundary"`
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// which must be sorted by ms.
func percentile(sorted []sample, p float64) pctl {
	n := len(sorted)
	if n == 0 {
		return pctl{}
	}
	r := int(math.Ceil(p*float64(n))) - 1
	r = max(0, min(n-1, r))
	tail := n - 1 - r
	return pctl{
		Value:    sorted[r].ms,
		Tail:     tail,
		OK:       tail >= minTail,
		Boundary: onClassBoundary(sorted, r),
	}
}

// onClassBoundary reports whether rank r of the sorted samples lies within
// a twentieth of the samples (at least 5) of a class boundary: the edge of
// a class whose samples sit together in one block of ranks, at least 80% of
// the ranks between its 5th and 95th percentile positions. There a small
// change in the class mix moves the percentile from one class to the
// other. Interleaved classes of similar cost form no block; a cheap class
// followed by a dear one does, and so does a slow instance taking the top
// tenth.
func onClassBoundary(sorted []sample, r int) bool {
	n := len(sorted)
	w := max(5, n/20)
	pos := map[string][]int{}
	for i, s := range sorted {
		pos[s.class] = append(pos[s.class], i)
	}
	if len(pos) < 2 {
		return false
	}
	for _, p := range pos {
		k := len(p)
		lo, hi := p[k/20], p[k-1-k/20]
		if 5*(k-2*(k/20)) < 4*(hi-lo+1) {
			continue // spread among other classes
		}
		for _, edge := range []int{lo, hi + 1} {
			if edge > 0 && edge < n && r >= edge-w && r <= edge+w {
				return true
			}
		}
	}
	return false
}

// median returns the median of vals (the mean of the middle two for an even
// count), without reordering vals.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals by the
// "exclusive" method of Python's statistics.quantiles(vals, n=4), so the
// spreads printed here match ones computed from the same numbers there.
// With one value both quartiles are that value.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(n-1, i*m/4))
		delta := i*m - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of vals as a share of their median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(median(vals))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// Verdicts of a comparison between a parent and a change.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares runs of the parent (old) and of the change (new) on one
// metric. The runs are taken as alternating pairs old[i], new[i]. A change
// improved the metric when it wins at least 9 of 10 pairs, ties counting
// for neither side, and its median beats the parent's by more than the
// parent's interquartile range. It regressed when its median is worse than
// the parent's by more than bound, a share of the parent's median; a metric
// without a bound (bound 0) regressed by the mirror of the improvement rule.
// When the parent's own spread is wider than the bound, a change that
// neither improved nor regressed is unresolved unless every run of the
// change reads better than every parent run.
func verdict(old, new []float64, lowerBetter bool, bound float64) string {
	if len(old) == 0 || len(new) == 0 {
		return unresolved
	}
	// gain > 0 means b is better than a.
	gain := func(a, b float64) float64 {
		if lowerBetter {
			return a - b
		}
		return b - a
	}
	pairs, wins, losses := min(len(old), len(new)), 0, 0
	for i := 0; i < pairs; i++ {
		switch g := gain(old[i], new[i]); {
		case g > 0:
			wins++
		case g < 0:
			losses++
		}
	}
	mo, mn := median(old), median(new)
	q1, q3 := quartiles(old)
	if 10*wins >= 9*pairs && gain(mo, mn) > q3-q1 {
		return improved
	}
	if bound > 0 && -gain(mo, mn) > bound*math.Abs(mo) {
		return regressed
	}
	if bound == 0 && 10*losses >= 9*pairs && -gain(mo, mn) > q3-q1 {
		return regressed
	}
	if bound > 0 && (q3-q1) > bound*math.Abs(mo) && !allBetter(old, new, gain) {
		return unresolved
	}
	return unchanged
}

// allBetter reports whether every run of new beats every run of old.
func allBetter(old, new []float64, gain func(a, b float64) float64) bool {
	for _, a := range old {
		for _, b := range new {
			if gain(a, b) <= 0 {
				return false
			}
		}
	}
	return true
}
