package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks (NaN when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || sorted[lo] == sorted[hi] || math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// latencies returns the latencies (ms) of the samples selected by keep,
// sorted. A failed operation counts as +Inf, so it misses every limit.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if !keep(s) {
			continue
		}
		if !s.ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.lat))
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ofKind(k opKind) func(sample) bool { return func(s sample) bool { return s.kind == k } }
func isWrite(s sample) bool             { return s.kind.isWrite() }
func anyOp(sample) bool                 { return true }
