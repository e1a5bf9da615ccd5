package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/linalg"
)

// Leader performs single-pass leader clustering: each point joins the
// nearest existing leader within threshold (L2 distance), or founds a
// new cluster. Leaders are the founding points; centroids are
// recomputed as member means afterwards. Of several leaders at the
// same nearest distance the later-founded one wins.
//
// Leader clustering is order-dependent by construction. That is a
// feature here: draws arrive in submission order, and game engines
// batch draws of one material contiguously, so the first draw of a
// batch naturally becomes its leader.
//
// The scan is exact but indexed. Leaders are kept sorted by their
// first coordinate; a point first tries the leader its predecessor
// joined, then walks outward from its own first coordinate in both
// directions and stops each direction at the first leader whose
// first-coordinate term alone exceeds the best distance so far. Every
// distance it completes is summed in the same order as a linear scan
// over all leaders, and the tie rule does not depend on visiting
// order, so the assignment is the linear scan's, bit for bit.
func Leader(x *linalg.Matrix, threshold float64) (Result, error) {
	if threshold <= 0 {
		return Result{}, fmt.Errorf("cluster: leader threshold %v <= 0", threshold)
	}
	n := x.Rows
	limit := threshold * threshold
	assign := make([]int, n)
	ix := leaderIndexPool.Get().(*leaderIndex)
	index := ix.entries[:0]
	k := 0
	warm, warmRow := -1, -1 // the cluster the previous point joined, and its founder
	for i := 0; i < n; i++ {
		row := x.Row(i)
		x0 := row[0]
		best, bestD := -1, limit
		if warm >= 0 {
			lrow := x.Row(warmRow)
			d0 := x0 - lrow[0]
			if d := tailSqDist(d0*d0, row, lrow, bestD); d <= bestD {
				best, bestD = warm, d
			}
		}
		bestRow := warmRow
		// A NaN first coordinate makes every distance NaN: the point
		// joins nothing, and as a leader it stays out of the index.
		isNum := x0 == x0
		p := 0
		if isNum {
			p = sort.Search(len(index), func(j int) bool { return index[j].key >= x0 })
			// Keys only grow to the right of p and shrink to its left,
			// so (x0-key)² is monotone outward from p in both directions
			// and the first entry past bestD ends that direction.
			for _, step := range [...]int{1, -1} {
				j := p
				if step < 0 {
					j = p - 1
				}
				for ; j >= 0 && j < len(index); j += step {
					e := &index[j]
					d0 := x0 - e.key
					if d0*d0 > bestD {
						break
					}
					if e.cluster == warm {
						continue
					}
					if d := tailSqDist(d0*d0, row, x.Row(e.row), bestD); d < bestD || d == bestD && e.cluster > best {
						best, bestD, bestRow = e.cluster, d, e.row
					}
				}
			}
		}
		if best == -1 {
			best, bestRow = k, i
			k++
			if isNum {
				index = append(index, leaderKey{})
				copy(index[p+1:], index[p:])
				index[p] = leaderKey{key: x0, cluster: best, row: i}
			}
		}
		assign[i] = best
		warm, warmRow = best, bestRow
	}
	ix.entries = index
	leaderIndexPool.Put(ix)
	res := Result{
		Assign:    assign,
		K:         k,
		Centroids: computeCentroids(x, assign, k),
	}
	return res, nil
}

// leaderKey is one founded leader in Leader's first-coordinate index.
type leaderKey struct {
	key     float64 // the founder's first coordinate, never NaN
	cluster int
	row     int // the founder's row in the clustered matrix
}

// leaderIndex is pooled scratch for Leader, so that the index costs no
// allocation per frame once it has grown to a frame's leader count.
type leaderIndex struct{ entries []leaderKey }

var leaderIndexPool = sync.Pool{New: func() any { return new(leaderIndex) }}

// tailSqDist finishes the squared L2 distance between a and b whose
// first-coordinate term is d0sq, adding dimensions 1.. in order and
// bailing out as soon as the partial sum exceeds limit. Since
// 0 + d0sq == d0sq, a full sum is bit-equal to sqDistEarlyExit's.
func tailSqDist(d0sq float64, a, b []float64, limit float64) float64 {
	s := d0sq
	b = b[:len(a)]
	for i := 1; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
		if s > limit {
			return s
		}
	}
	return s
}
