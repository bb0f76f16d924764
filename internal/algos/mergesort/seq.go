package mergesort

// Sort is the classic recursive mergesort of the paper's Algorithm 6. Only
// tests use it, as a functional reference; the native sequential baseline
// is core.RunSequentialCtx over a Sorter's CombineBatch. It sorts a in place
// and accepts any length.
func Sort(a []int32) {
	if len(a) < 2 {
		return
	}
	aux := make([]int32, len(a))
	sortRec(a, aux)
}

func sortRec(a, aux []int32) {
	if len(a) < 2 {
		return
	}
	mid := len(a) / 2
	sortRec(a[:mid], aux[:mid])
	sortRec(a[mid:], aux[mid:])
	mergeRuns(aux[:len(a)], a[:mid], a[mid:])
	copy(a, aux[:len(a)])
}

// SortBreadthFirst is the paper's Algorithm 7: the breadth-first rewrite of
// mergesort, executed sequentially. It sorts a in place; len(a) must be a
// power of two (the restriction the paper adopts in §4.1's footnote).
func SortBreadthFirst(a []int32) {
	n := len(a)
	if n < 2 {
		return
	}
	if n&(n-1) != 0 {
		panic("mergesort: SortBreadthFirst requires a power-of-two length")
	}
	src := a
	dst := make([]int32, n)
	for size := 2; size <= n; size *= 2 {
		for off := 0; off < n; off += size {
			mergeRuns(dst[off:off+size], src[off:off+size/2], src[off+size/2:off+size])
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
