package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count). It panics on an empty slice: every caller
// measures at least one sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), which is how the
// steadiness of end-to-end metrics is judged. It needs two samples.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// nearestRank is the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule, together with how many samples lie beyond it.
func nearestRank(xs []float64, p float64) (value float64, beyond int) {
	s := sorted(xs)
	k := int(math.Ceil(p * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s) - k
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to describe a tail rather than a few stragglers.
const minBeyond = 10

// tailPercentile is the nearest-rank p-quantile of xs, refused when
// fewer than minBeyond samples lie beyond it.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	v, beyond := nearestRank(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// splitmix64 is the seed mixer every generated input derives from, so
// one --seed fixes every input of a run.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive maps (seed, stream, index) to an independent 64-bit value.
func derive(seed uint64, stream string, index int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return splitmix64(splitmix64(seed^h) + uint64(index))
}

// rng is a small deterministic generator for shuffles and draws.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
