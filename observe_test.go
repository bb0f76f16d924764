package hybriddc

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestSpanRecorderKeepsSegmentReuse pins that tracing a run does not cut
// the executor off from the device's segment cache: three same-shape
// GPU-only mergesorts on one simulator lease one device segment and reuse
// it twice, traced or not.
func TestSpanRecorderKeepsSegmentReuse(t *testing.T) {
	for _, traced := range []bool{false, true} {
		sim := MustSim(HPU1())
		rec := NewTraceRecorder()
		var opt Option
		if traced {
			opt = WithSpanRecorder(rec)
		}
		for i := 0; i < 3; i++ {
			s, err := NewMergesort(workload.Uniform(1<<12, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunGPUOnlyCtx(context.Background(), sim, s, opt); err != nil {
				t.Fatal(err)
			}
		}
		if st := sim.SimGPU().Segments().Stats(); st.Allocs != 1 || st.Reuses != 2 {
			t.Errorf("traced=%v: segment stats %+v, want 1 alloc and 2 reuses", traced, st)
		}
		if traced && rec.Len() == 0 {
			t.Error("traced runs recorded no spans")
		}
	}
}
