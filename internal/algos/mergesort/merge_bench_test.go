package mergesort

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkMergePass times one breadth-first merge pass over 2^20 elements:
// the input holds sorted runs of the given length, and the pass merges each
// adjacent pair into a run twice as long, as one level of SortBreadthFirst
// or of the executors' CombineBatch does. Short runs stress the per-call
// cost, long ones the per-element loop. The ns/elem metric is the time per
// output element.
func BenchmarkMergePass(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	in := make([]int32, n)
	for i := range in {
		in[i] = rng.Int31()
	}
	for _, run := range []int{2, 16, 1 << 10, 1 << 19} {
		src := slices.Clone(in)
		for off := 0; off < n; off += run {
			slices.Sort(src[off : off+run])
		}
		dst := make([]int32, n)
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < n; off += 2 * run {
					mergeRuns(dst[off:off+2*run], src[off:off+run], src[off+run:off+2*run])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
