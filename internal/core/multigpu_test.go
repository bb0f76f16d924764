package core_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	. "repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/workload"
)

// coalesceOpts returns the coalescing option when on, for table-driven
// tests that toggle it.
func coalesceOpts(on bool) []Option {
	if on {
		return []Option{WithCoalesce()}
	}
	return nil
}

func sortedRef(in []int32) []int32 {
	out := append([]int32(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestMultiGPUSortsCorrectly(t *testing.T) {
	for _, devices := range []int{1, 2, 3, 4} {
		for _, coalesce := range []bool{false, true} {
			in := workload.Uniform(1<<12, int64(devices))
			be, err := hpu.NewMultiSim(hpu.HPU1(), devices)
			if err != nil {
				t.Fatal(err)
			}
			s, err := mergesort.New(in)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunMultiGPUCtx(context.Background(), be, s, 0.2, 7, coalesceOpts(coalesce)...)
			if err != nil {
				t.Fatalf("devices=%d coalesce=%v: %v", devices, coalesce, err)
			}
			want := sortedRef(in)
			got := s.Result()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("devices=%d coalesce=%v: unsorted at %d", devices, coalesce, i)
				}
			}
			if rep.Seconds <= 0 {
				t.Errorf("devices=%d: nonpositive duration", devices)
			}
		}
	}
}

func TestMultiGPUStructure(t *testing.T) {
	// Each device's combine ranges must be disjoint and cover exactly the
	// GPU portion.
	p := newProbe(2, 8)
	be, err := hpu.NewMultiSim(hpu.HPU1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMultiGPUCtx(context.Background(), be, p, 0.25, 5, WithSplit(2)); err != nil {
		t.Fatal(err)
	}
	for level, ranges := range p.combinedRanges() {
		total := 0
		for _, r := range ranges {
			total += r[1] - r[0]
		}
		if want := TasksAtLevel(2, level); total != want {
			t.Errorf("level %d: combined tasks = %d, want %d (%v)", level, total, want, ranges)
		}
	}
}

func TestMultiGPUAlphaOne(t *testing.T) {
	// α=1 leaves every device idle; the run degenerates to CPU-only.
	in := workload.Uniform(1<<10, 1)
	be, err := hpu.NewMultiSim(hpu.HPU2(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mergesort.New(in)
	rep, err := RunMultiGPUCtx(context.Background(), be, s, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUPortionSeconds != 0 {
		t.Errorf("α=1 multi-GPU run reported device time %g", rep.GPUPortionSeconds)
	}
	got := s.Result()
	want := sortedRef(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("unsorted")
		}
	}
}

func TestMultiGPUMoreDevicesThanWork(t *testing.T) {
	// Split level 1 on a=2 gives at most 2 GPU stripes; 4 devices must not
	// break striping.
	in := workload.Uniform(1<<10, 2)
	be, err := hpu.NewMultiSim(hpu.HPU1(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mergesort.New(in)
	if _, err := RunMultiGPUCtx(context.Background(), be, s, 0.4, 4, WithSplit(1), WithCoalesce()); err != nil {
		t.Fatal(err)
	}
	got := s.Result()
	want := sortedRef(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("unsorted")
		}
	}
}

func TestMultiGPUValidation(t *testing.T) {
	if _, err := hpu.NewMultiSim(hpu.HPU1(), 0); err == nil {
		t.Error("NewMultiSim accepted 0 devices")
	}
	be, _ := hpu.NewMultiSim(hpu.HPU1(), 1)
	s, _ := mergesort.New(workload.Uniform(1<<8, 1))
	if _, err := RunMultiGPUCtx(context.Background(), be, s, -1, 3, WithSplit(0)); err == nil {
		t.Error("accepted alpha < 0")
	}
	if _, err := RunMultiGPUCtx(context.Background(), be, s, 0.5, 99, WithSplit(0)); err == nil {
		t.Error("accepted y > L")
	}
}

// TestDualDieFootnote reproduces the decision behind the paper's footnote 5:
// on HPU1's dual-GPU card, the second die's extra transfers are not
// worthwhile for the hybrid mergesort at the paper's sizes.
func TestDualDieFootnote(t *testing.T) {
	in := workload.Uniform(1<<16, 3)
	run := func(devices int) float64 {
		be, err := hpu.NewMultiSim(hpu.HPU1(), devices)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := mergesort.New(in)
		rep, err := RunMultiGPUCtx(context.Background(), be, s, 0.17, 8, WithCoalesce())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	single, dual := run(1), run(2)
	// The dual-die run must not be dramatically better — the available
	// parallelism cannot saturate both dies above the transfer level
	// (footnote 5); allow it to be mildly better or worse.
	if dual < 0.75*single {
		t.Errorf("dual-die run %gs much faster than single %gs; footnote 5 trade-off not reproduced",
			dual, single)
	}
}

// goldenRow is one configuration of the advanced division's virtual-time
// golden table, recorded on the HPU1 simulator before the single- and
// multi-device divisions shared one body. secs and cpu are Seconds and
// CPUPortionSeconds of RunMultiGPUCtx on MultiSim(1), MultiSim(2) and
// MultiSim(4); gpu1 is the single-device GPUPortionSeconds (the latest
// device-done time after the download, from the fork). split < 0 keeps
// DefaultSplit.
type goldenRow struct {
	alg      string
	logn     int
	alpha    float64
	y        int
	split    int
	coalesce bool
	secs     [3]float64
	cpu      [3]float64
	gpu1     float64
}

var advancedGolden = []goldenRow{
	{"mergesort", 10, 0, 8, -1, false, [3]float64{0.00020609066666666675, 0.00020609066666666675, 0.00020609066666666675}, [3]float64{0, 0, 0}, 0.0001747306666666667},
	{"mergesort", 10, 0.17, 7, -1, true, [3]float64{0.00024222691208791212, 0.0003007465311355311, 0.0005083840000000001}, [3]float64{1.116e-05, 1.116e-05, 1.116e-05}, 0.00021446691208791208},
	{"mergesort", 10, 0.5, 8, 2, false, [3]float64{0.0002015253333333333, 0.00026824533333333334, 0.00026824533333333334}, [3]float64{2.176e-05, 2.176e-05, 2.176e-05}, 0.00017336533333333335},
	{"mergesort", 10, 0.5, 5, -1, true, [3]float64{0.0003122649487179487, 0.00037167394505494504, 0.0005012853333333333}, [3]float64{1.848e-05, 1.848e-05, 1.848e-05}, 0.0002920249487179487},
	{"mergesort", 10, 0.25, 6, 1, true, [3]float64{0.0002693049487179487, 0.0002693049487179487, 0.0002693049487179487}, [3]float64{2.632e-05, 2.632e-05, 2.632e-05}, 0.00024642494871794874},
	{"mergesort", 10, 1, 8, -1, false, [3]float64{3.7919999999999996e-05, 3.7919999999999996e-05, 3.7919999999999996e-05}, [3]float64{2.6239999999999996e-05, 2.6239999999999996e-05, 2.6239999999999996e-05}, 0},
	{"mergesort", 14, 0, 12, -1, false, [3]float64{0.0005713706666666668, 0.0005713706666666668, 0.0005713706666666668}, [3]float64{0, 0, 0}, 0.00021969066666666667},
	{"mergesort", 14, 0.17, 11, -1, true, [3]float64{0.0005606971249999999, 0.0005581205833333335, 0.000747504}, [3]float64{4.935999999999999e-05, 4.935999999999999e-05, 4.935999999999999e-05}, 0.000249417125},
	{"mergesort", 14, 0.5, 12, 2, false, [3]float64{0.00045336533333333333, 0.0004946453333333333, 0.0004946453333333333}, [3]float64{0.00015712000000000001, 0.00015712000000000001, 0.00015712000000000001}, 0.00019384533333333332},
	{"mergesort", 14, 0.5, 7, -1, true, [3]float64{0.0007035153333333331, 0.0007426189999999999, 0.0008553309706959706}, [3]float64{0.00013464000000000003, 0.00013464000000000003, 0.00013464000000000003}, 0.0005051953333333333},
	{"mergesort", 14, 0.25, 10, 1, true, [3]float64{0.0005010353333333333, 0.0005010353333333333, 0.0005010353333333333}, [3]float64{0.00020008000000000002, 0.00020008000000000002, 0.00020008000000000002}, 0.0002659953333333333},
	{"mergesort", 14, 1, 12, -1, false, [3]float64{0.0003966400000000001, 0.0003966400000000001, 0.0003966400000000001}, [3]float64{0.0002697600000000001, 0.0002697600000000001, 0.0002697600000000001}, 0},
	{"scan", 10, 0, 8, -1, false, [3]float64{0.00019467384249084244, 0.00019467384249084244, 0.00019467384249084244}, [3]float64{0, 0, 0}, 0.0001709938424908425},
	{"scan", 10, 0.17, 7, -1, true, [3]float64{0.00021889779853479852, 0.00027755417948717947, 0.0005046480000000001}, [3]float64{1.0579999999999999e-05, 1.0579999999999999e-05, 1.0579999999999999e-05}, 0.00019801779853479855},
	{"scan", 10, 0.5, 8, 2, false, [3]float64{0.000190577608058608, 0.00026417066666666674, 0.00026417066666666674}, [3]float64{1.8880000000000002e-05, 1.8880000000000002e-05, 1.8880000000000002e-05}, 0.00016849760805860806},
	{"scan", 10, 0.5, 5, -1, true, [3]float64{0.0002992787802197802, 0.0003587291538461539, 0.0004976906666666667}, [3]float64{1.624e-05, 1.624e-05, 1.624e-05}, 0.00028415878021978023},
	{"scan", 10, 0.25, 6, 1, true, [3]float64{0.0002497086703296703, 0.0002497086703296703, 0.0002497086703296703}, [3]float64{2.216e-05, 2.216e-05, 2.216e-05}, 0.00023226867032967034},
	{"scan", 10, 1, 8, -1, false, [3]float64{2.896e-05, 2.896e-05, 2.896e-05}, [3]float64{2.112e-05, 2.112e-05, 2.112e-05}, 0},
	{"scan", 14, 0, 12, -1, false, [3]float64{0.0004357213333333334, 0.0004357213333333334, 0.0004357213333333334}, [3]float64{0, 0, 0}, 0.00024788133333333335},
	{"scan", 14, 0.17, 11, -1, true, [3]float64{0.00042625201442307706, 0.00045412800000000004, 0.0006800479999999999}, [3]float64{3.368e-05, 3.368e-05, 3.368e-05}, 0.00025961201442307693},
	{"scan", 14, 0.5, 12, 2, false, [3]float64{0.0003477011245421245, 0.00040497066666666685, 0.00040497066666666685}, [3]float64{9.056e-05, 9.056e-05, 9.056e-05}, 0.00020594112454212454},
	{"scan", 14, 0.5, 7, -1, true, [3]float64{0.0006507806117216116, 0.0006987420476190476, 0.0008140027655677656}, [3]float64{7.832e-05, 7.832e-05, 7.832e-05}, 0.0005446206117216117},
	{"scan", 14, 0.25, 10, 1, true, [3]float64{0.0003937157032967033, 0.0003937157032967033, 0.0003937157032967033}, [3]float64{0.00011304, 0.00011304, 0.00011304}, 0.0002661957032967033},
	{"scan", 14, 1, 12, -1, false, [3]float64{0.00021232000000000003, 0.00021232000000000003, 0.00021232000000000003}, [3]float64{0.00014688000000000003, 0.00014688000000000003, 0.00014688000000000003}, 0},
}

func (r goldenRow) build(t *testing.T) GPUAlg {
	t.Helper()
	in := workload.Uniform(1<<r.logn, int64(r.logn))
	var alg GPUAlg
	var err error
	if r.alg == "mergesort" {
		alg, err = mergesort.New(in)
	} else {
		alg, err = scan.New(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

func (r goldenRow) opts() []Option {
	opts := coalesceOpts(r.coalesce)
	if r.split >= 0 {
		opts = append(opts, WithSplit(r.split))
	}
	return opts
}

// TestAdvancedGolden pins the advanced division's virtual time bit for bit:
// RunMultiGPUCtx on 1, 2 and 4 devices, and RunAdvancedHybridCtx on a
// single-device Sim, which must be the same run as MultiSim(1).
func TestAdvancedGolden(t *testing.T) {
	for _, r := range advancedGolden {
		name := fmt.Sprintf("%s/2^%d/α=%g/y=%d/split=%d/coalesce=%v", r.alg, r.logn, r.alpha, r.y, r.split, r.coalesce)
		for i, d := range []int{1, 2, 4} {
			be, err := hpu.NewMultiSim(hpu.HPU1(), d)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunMultiGPUCtx(context.Background(), be, r.build(t), r.alpha, r.y, r.opts()...)
			if err != nil {
				t.Fatalf("%s d=%d: %v", name, d, err)
			}
			if rep.Seconds != r.secs[i] || rep.CPUPortionSeconds != r.cpu[i] {
				t.Errorf("%s d=%d: Seconds, CPUPortionSeconds = %v, %v; want %v, %v",
					name, d, rep.Seconds, rep.CPUPortionSeconds, r.secs[i], r.cpu[i])
			}
			if d == 1 && rep.GPUPortionSeconds != r.gpu1 {
				t.Errorf("%s d=1: GPUPortionSeconds = %v, want %v", name, rep.GPUPortionSeconds, r.gpu1)
			}
		}
		rep, err := RunAdvancedHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), r.build(t), r.alpha, r.y, r.opts()...)
		if err != nil {
			t.Fatalf("%s sim: %v", name, err)
		}
		if rep.Seconds != r.secs[0] || rep.CPUPortionSeconds != r.cpu[0] || rep.GPUPortionSeconds != r.gpu1 {
			t.Errorf("%s sim: %+v; want Seconds %v CPU %v GPU %v", name, rep, r.secs[0], r.cpu[0], r.gpu1)
		}
	}
}

// countingUnit counts the non-empty batches that reach one device.
type countingUnit struct {
	LevelExecutor
	n *int
}

func (c countingUnit) Submit(b Batch, done func()) {
	if !b.Empty() {
		*c.n++
	}
	c.LevelExecutor.Submit(b, done)
}

// countingMulti is a MultiSim whose devices count the batches they receive.
type countingMulti struct {
	*hpu.MultiSim
	gpus   []LevelExecutor
	counts []int
}

func newCountingMulti(t *testing.T, devices int) *countingMulti {
	t.Helper()
	ms, err := hpu.NewMultiSim(hpu.HPU1(), devices)
	if err != nil {
		t.Fatal(err)
	}
	m := &countingMulti{MultiSim: ms, counts: make([]int, devices)}
	for i, g := range ms.GPUs() {
		m.gpus = append(m.gpus, countingUnit{g, &m.counts[i]})
	}
	return m
}

func (m *countingMulti) GPU() LevelExecutor    { return m.gpus[0] }
func (m *countingMulti) GPUs() []LevelExecutor { return m.gpus }

// TestMultiGPUHooksSeeEveryDevice requires a striped run's hook sets to see
// every batch that reaches a device, on every die, and WithGrain to coarsen
// the CPU portion without changing the result.
func TestMultiGPUHooksSeeEveryDevice(t *testing.T) {
	in := workload.Uniform(1<<12, 5)
	want := sortedRef(in)
	var cpuBatches [2]int
	for i, grain := range []int{0, GrainAuto} {
		be := newCountingMulti(t, 2)
		var gpu, cpu int
		count := Hooks{Batch: func(onGPU bool, _ Batch, _, _ float64) {
			if onGPU {
				gpu++
			} else {
				cpu++
			}
		}}
		s, err := mergesort.New(in)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunMultiGPUCtx(context.Background(), be, s, 0.5, 8, WithHooks(count), WithGrain(grain), WithCoalesce())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Strategy != "advanced-2gpu" {
			t.Errorf("grain=%d: strategy %q, want advanced-2gpu", grain, rep.Strategy)
		}
		for d, n := range be.counts {
			if n == 0 {
				t.Errorf("grain=%d: device %d received no batches", grain, d)
			}
		}
		if total := be.counts[0] + be.counts[1]; gpu != total {
			t.Errorf("grain=%d: hooks observed %d GPU batches, devices received %d %v", grain, gpu, total, be.counts)
		}
		got := s.Result()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("grain=%d: result differs from the reference at %d", grain, j)
			}
		}
		cpuBatches[i] = cpu
	}
	if cpuBatches[1] >= cpuBatches[0] {
		t.Errorf("GrainAuto left %d CPU batches, ungrained %d: grain did not coarsen the CPU portion", cpuBatches[1], cpuBatches[0])
	}
}
