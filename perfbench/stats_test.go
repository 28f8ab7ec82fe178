package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 1, 7, 7}, 4.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) (method "exclusive"), the definition
// the steadiness bounds are judged by. Expected values were computed
// with CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 1}, [3]float64{-1.25, 5.5, 12.25}},
		{[]float64{2.5, 9, 1, 4}, [3]float64{1.375, 3.25, 7.75}},
		{[]float64{7, 7, 7, 7, 7, 7, 7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(tc.in)
		for i := range got {
			if !near(got[i], tc.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted order
	}
	if v, beyond := nearestRank(xs, 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 = %g with %d beyond, want 50 with 50", v, beyond)
	}
	if v, beyond := nearestRank(xs, 0.95); v != 95 || beyond != 5 {
		t.Errorf("p95 = %g with %d beyond, want 95 with 5", v, beyond)
	}
	if v, beyond := nearestRank([]float64{4}, 0.95); v != 4 || beyond != 0 {
		t.Errorf("p95 of one sample = %g with %d beyond", v, beyond)
	}
}

// TestTailPercentileNeedsTenBeyond: a reported tail percentile must
// have at least ten samples beyond it. p95 needs 200 samples.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, err := tailPercentile(mk(200), 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 200 = %g, %v; want 190 with ten beyond", v, err)
	}
	if _, err := tailPercentile(mk(199), 0.95); err == nil {
		t.Error("p95 of 199 samples leaves nine beyond and must be refused")
	}
	if _, err := tailPercentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
	// The service stream's size keeps its p95 reportable.
	if _, err := tailPercentile(mk(svcResub+svcCacheOnly+svcFresh), 0.95); err != nil {
		t.Errorf("one service round: %v", err)
	}
}

// TestStreamSharesAvoidModeBoundaries: the median and p95 of a round
// fall at least ten points inside the cache-read and compute modes.
func TestStreamSharesAvoidModeBoundaries(t *testing.T) {
	n := float64(svcResub + svcCacheOnly + svcFresh)
	b1 := 100 * float64(svcResub) / n
	b2 := 100 * float64(svcResub+svcCacheOnly) / n
	for _, p := range []float64{50, 95} {
		for _, b := range []float64{b1, b2} {
			if math.Abs(p-b) < 10 {
				t.Errorf("p%g lies %.1f points from the mode boundary at %.1f%%", p, math.Abs(p-b), b)
			}
		}
	}
}

func TestDeriveIsDeterministicAndSpread(t *testing.T) {
	if derive(1, "a", 0) != derive(1, "a", 0) {
		t.Fatal("derive is not deterministic")
	}
	seen := map[uint64]bool{}
	for _, s := range []uint64{1, 2} {
		for _, stream := range []string{"a", "b"} {
			for i := 0; i < 3; i++ {
				seen[derive(s, stream, i)] = true
			}
		}
	}
	if len(seen) != 12 {
		t.Errorf("derive collided: %d distinct of 12", len(seen))
	}
}
