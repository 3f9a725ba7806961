// Package quality implements the evaluation measures of Section 6:
// precision/recall/F1 against ground-truth communities, kept-node
// percentage (free-rider elimination), and the mean and median the tables
// report.
package quality

import "sort"

// Overlap returns |A ∩ B| for two vertex sets.
func Overlap(a, b []int) int {
	in := make(map[int]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	c := 0
	seen := make(map[int]bool, len(b))
	for _, v := range b {
		if in[v] && !seen[v] {
			seen[v] = true
			c++
		}
	}
	return c
}

// Precision returns |C ∩ Ĉ| / |C| for detected community C and truth Ĉ.
func Precision(detected, truth []int) float64 {
	if len(detected) == 0 {
		return 0
	}
	return float64(Overlap(detected, truth)) / float64(len(detected))
}

// Recall returns |C ∩ Ĉ| / |Ĉ|.
func Recall(detected, truth []int) float64 {
	if len(truth) == 0 {
		return 0
	}
	return float64(Overlap(detected, truth)) / float64(len(truth))
}

// F1 returns the harmonic mean of precision and recall (Exp-3's score).
func F1(detected, truth []int) float64 {
	p, r := Precision(detected, truth), Recall(detected, truth)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// BestF1 returns the maximum F1 of the detected community against any of
// the candidate ground-truth communities, with the index of the best match
// (-1 when there are none).
func BestF1(detected []int, truths [][]int) (float64, int) {
	best, idx := 0.0, -1
	for i, truth := range truths {
		if f := F1(detected, truth); f > best {
			best, idx = f, i
		}
	}
	return best, idx
}

// KeptPercent returns 100·|V(R)|/|V(G0)|, the Figures 5-10 "percentage"
// metric: the fraction of the raw k-truss G0 kept by a free-rider-removing
// method (lower = more free riders removed).
func KeptPercent(resultN, g0N int) float64 {
	if g0N == 0 {
		return 0
	}
	return 100 * float64(resultN) / float64(g0N)
}

// Mean returns the arithmetic mean of xs (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}
