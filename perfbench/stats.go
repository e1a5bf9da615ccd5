package main

import (
	"math"
	"sort"
	"strconv"
)

// tailLadder is the set of percentiles a tail may be reported at. A
// percentile is supported when at least minBeyond samples lie above it.
var tailLadder = []float64{50, 90, 99, 99.9}

const minBeyond = 10

// summary is one metric's sample set reduced for printing: the median
// and the highest tail percentile the sample count supports.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// Tail names the reported tail: "p50", "p90", ... or "max" when
	// fewer than 2*minBeyond samples support no percentile at all.
	Tail      string  `json:"tail"`
	TailValue float64 `json:"tail_value"`
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples above its nearest rank, or 0 when none is.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of percentile p among n samples. The
// small slack keeps float error in p/100*n (99.9% of 10000 is
// 9990.000000000002) from pushing the rank up by one.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// summarize reduces xs to its median and supported tail.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if len(xs) == 0 {
		return s
	}
	sx := sorted(xs)
	p := tailPercentile(len(xs))
	if p == 0 {
		s.Tail, s.TailValue = "max", sx[len(sx)-1]
		return s
	}
	s.Tail = "p" + strconv.FormatFloat(p, 'f', -1, 64)
	s.TailValue = sx[nearestRank(p, len(sx))-1]
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
