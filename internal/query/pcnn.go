package query

import "fmt"

// maxPCNNSets caps the number of timestamp sets a PCNN query may examine.
// Definition 3 admits result sets exponential in |T| as τ → 0 (Section
// 4.3); the cap turns pathological parameterizations into an explicit
// error rather than an effectively unbounded computation.
const maxPCNNSets = 200000

// TimeSet is one maximal qualifying timestamp set of the PCNN lattice
// walk: ascending offsets into the query window plus its estimated
// probability.
type TimeSet struct {
	Offsets []int // ascending offsets into [0, nT)
	Prob    float64
}

// MineTimeSets runs the Apriori lattice walk (Algorithm 1) for one
// object over precomputed per-world NN masks, returning the maximal
// qualifying sets plus the total number of qualifying sets found (the
// paper's "unprocessed result set" size). masks[w][li*nT+j] reports
// whether the object at row li satisfied the NN predicate at window
// offset j in world w — the layout MaskEvaluator accumulates. The
// sharded executor (shard.Gather) runs it per influencer row.
func MineTimeSets(masks [][]bool, li, nT int, tau float64) ([]TimeSet, int, error) {
	support := func(items []int) float64 {
		count := 0
		for _, row := range masks {
			ok := true
			for _, k := range items {
				if !row[li*nT+k] {
					ok = false
					break
				}
			}
			if ok {
				count++
			}
		}
		return float64(count) / float64(len(masks))
	}

	// L1 (Algorithm 1, line 1).
	var level []TimeSet
	for k := 0; k < nT; k++ {
		if p := support([]int{k}); p >= tau {
			level = append(level, TimeSet{Offsets: []int{k}, Prob: p})
		}
	}
	all := append([]TimeSet(nil), level...)
	examined := len(level)

	// Iterate k = 2.. (lines 2-5).
	for len(level) > 0 {
		prevKeys := make(map[string]bool, len(level))
		for _, s := range level {
			prevKeys[key(s.Offsets)] = true
		}
		var next []TimeSet
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				cand, ok := join(level[i].Offsets, level[j].Offsets)
				if !ok {
					continue
				}
				if !allSubsetsIn(cand, prevKeys) {
					continue
				}
				examined++
				if examined > maxPCNNSets {
					return nil, 0, fmt.Errorf(
						"query: PCNN lattice exceeded %d candidate sets; raise tau or shorten T", maxPCNNSets)
				}
				if p := support(cand); p >= tau {
					next = append(next, TimeSet{Offsets: cand, Prob: p})
				}
			}
		}
		all = append(all, next...)
		level = next
	}

	// Keep only maximal sets (Definition 3, refined form).
	var out []TimeSet
	for i, s := range all {
		maximal := true
		for j, t := range all {
			if i != j && len(t.Offsets) > len(s.Offsets) && isSubset(s.Offsets, t.Offsets) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out, len(all), nil
}

// join merges two sorted k-sets sharing their first k-1 elements into a
// (k+1)-set — the classic Apriori candidate generation.
func join(a, b []int) ([]int, bool) {
	n := len(a)
	for i := 0; i < n-1; i++ {
		if a[i] != b[i] {
			return nil, false
		}
	}
	if a[n-1] >= b[n-1] {
		return nil, false
	}
	out := make([]int, n+1)
	copy(out, a)
	out[n] = b[n-1]
	return out, true
}

// allSubsetsIn checks the Apriori prune condition: every (k-1)-subset of
// cand must have qualified in the previous level.
func allSubsetsIn(cand []int, prev map[string]bool) bool {
	sub := make([]int, 0, len(cand)-1)
	for drop := 0; drop < len(cand); drop++ {
		sub = sub[:0]
		for i, v := range cand {
			if i != drop {
				sub = append(sub, v)
			}
		}
		if !prev[key(sub)] {
			return false
		}
	}
	return true
}

func key(items []int) string {
	b := make([]byte, 0, len(items)*3)
	for _, v := range items {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func isSubset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}
