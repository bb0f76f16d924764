package mergesort

import (
	"math"
	"slices"
	"testing"
)

// mergeRunsOracle is the plain two-pointer merge that mergeRuns replaced,
// kept as the differential oracle for the branch-free kernel: ties take a
// first, then the tails are copied.
func mergeRunsOracle(out, a, b []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}

// mergeGuard is the sentinel filling the slots around the merge output.
const mergeGuard = int32(0x5eed)

// checkMerge merges the sorted runs a and b with mergeRuns into a window of
// a larger buffer and compares the result with mergeRunsOracle. The slots
// before the window and after its first len(a)+len(b) elements hold
// mergeGuard and must keep it; the window passed to mergeRuns extends into
// the trailing guard, so a kernel that wrote past len(a)+len(b) would be
// caught.
func checkMerge(t *testing.T, a, b []int32) {
	t.Helper()
	n := len(a) + len(b)
	const pad = 3
	buf := make([]int32, pad+n+pad)
	for i := range buf {
		buf[i] = mergeGuard
	}
	mergeRuns(buf[pad:], a, b)
	want := make([]int32, n)
	mergeRunsOracle(want, a, b)
	if got := buf[pad : pad+n]; !slices.Equal(got, want) {
		t.Fatalf("mergeRuns(%v, %v) = %v, want %v", a, b, got, want)
	}
	for i, v := range buf {
		if (i < pad || i >= pad+n) && v != mergeGuard {
			t.Fatalf("mergeRuns(%v, %v) wrote %d at offset %d of out, outside [0, %d)", a, b, v, i-pad, n)
		}
	}
}

// sortedRuns returns every non-decreasing sequence of length 0..maxLen over
// vals (which must be sorted), duplicates included.
func sortedRuns(vals []int32, maxLen int) [][]int32 {
	out := [][]int32{{}}
	var grow func(run []int32, from int)
	grow = func(run []int32, from int) {
		if len(run) == maxLen {
			return
		}
		for i := from; i < len(vals); i++ {
			next := append(slices.Clone(run), vals[i])
			out = append(out, next)
			grow(next, i)
		}
	}
	grow(nil, 0)
	return out
}

// TestMergeRunsSmallHalves merges every pair of sorted halves of length 0-4
// over the extremes of int32 and its values around zero: equal halves take
// the two-ended path, unequal and empty ones the one-ended path and its tail
// copies.
func TestMergeRunsSmallHalves(t *testing.T) {
	runs := sortedRuns([]int32{math.MinInt32, -1, 0, 1, math.MaxInt32}, 4)
	if len(runs) != 126 {
		t.Fatalf("got %d sorted runs, want 126", len(runs))
	}
	for _, a := range runs {
		for _, b := range runs {
			checkMerge(t, a, b)
		}
	}
}

// sortedCopy returns a sorted copy of a, sorted independently of the
// package's own merge.
func sortedCopy(a []int32) []int32 {
	out := slices.Clone(a)
	slices.Sort(out)
	return out
}
