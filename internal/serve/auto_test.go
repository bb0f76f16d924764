package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/serve"
	"repro/internal/workload"
)

// autoPropertySizes spans the CPU/GPU crossover on HPU1: at 256 elements
// the transfer-free CPU path wins, at 64Ki the device path dominates, and
// the middle sizes land near the §6 break-even region.
var autoPropertySizes = []int{1 << 8, 1 << 12, 1 << 16}

// TestAutoStrategyProperty is the Strategy Auto acceptance property, run for
// 8 seeds × {mergesort, scan, dcsum} × sizes spanning the crossover:
//
//  1. results are bit-identical to the plain-Go ground truth, and
//  2. every decision's chosen strategy prices at or below every rejected
//     strategy under the same calibration (the argmin invariant), verified
//     against the device's calibration via Server.Tuner.
//
// Each seed submits two rounds per (algorithm, size): the first lands on
// the cold-start analytic model, the second on fitted rates — so both the
// fallback and the calibrated path are exercised. Run under -race in CI.
func TestAutoStrategyProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			srv, err := serve.New(hpu.MustSim(hpu.HPU1()))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			for round := 0; round < 2; round++ {
				for _, n := range autoPropertySizes {
					data := workload.Uniform(n, rng.Int63())
					checkAutoMergesort(ctx, t, srv, data)
					checkAutoScan(ctx, t, srv, data)
					checkAutoSum(ctx, t, srv, data)
				}
			}
			checkDecisionInvariant(t, srv)
		})
	}
}

func submitAuto(ctx context.Context, t *testing.T, srv *serve.Server, alg core.Alg) core.Report {
	t.Helper()
	h, err := srv.Submit(ctx, serve.Job{Alg: alg, Strategy: serve.Auto})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AutoStrategy == "" {
		t.Fatalf("auto job settled without a chosen strategy (report %+v)", rep)
	}
	return rep
}

func checkAutoMergesort(ctx context.Context, t *testing.T, srv *serve.Server, data []int32) {
	t.Helper()
	s, err := mergesort.New(data)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	submitAuto(ctx, t, srv, s)
	got := s.Result()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergesort n=%d diverges from ground truth at %d: %d != %d",
				len(data), i, got[i], want[i])
		}
	}
}

func checkAutoScan(ctx context.Context, t *testing.T, srv *serve.Server, data []int32) {
	t.Helper()
	s, err := scan.New(data)
	if err != nil {
		t.Fatal(err)
	}
	submitAuto(ctx, t, srv, s)
	got := s.Result()
	run := int64(0)
	for i, v := range data {
		run += int64(v)
		if got[i] != run {
			t.Fatalf("scan n=%d diverges from ground truth at %d: %d != %d",
				len(data), i, got[i], run)
		}
	}
}

func checkAutoSum(ctx context.Context, t *testing.T, srv *serve.Server, data []int32) {
	t.Helper()
	s, err := dcsum.New(data)
	if err != nil {
		t.Fatal(err)
	}
	submitAuto(ctx, t, srv, s)
	want := int64(0)
	for _, v := range data {
		want += int64(v)
	}
	if got := s.Result(); got != want {
		t.Fatalf("dcsum n=%d diverges from ground truth: %d != %d", len(data), got, want)
	}
}

// checkDecisionInvariant prices every (algorithm, size) pair this test
// submitted against the server's single-device calibration — warm by now —
// and asserts the argmin property on the decision the server would make.
func checkDecisionInvariant(t *testing.T, srv *serve.Server) {
	t.Helper()
	for _, n := range autoPropertySizes {
		data := workload.Uniform(n, 1)
		ms, _ := mergesort.New(data)
		sc, _ := scan.New(data)
		su, _ := dcsum.New(data)
		for _, alg := range []core.Alg{ms, sc, su} {
			m := alg.(interface {
				ModelF() func(float64) float64
				ModelLeaf() float64
			})
			galg := alg.(core.GPUAlg)
			sp := autotune.Spec{
				Alg: alg.Name(), N: alg.N(),
				A: alg.Arity(), B: alg.Shrink(), Levels: alg.Levels(),
				F: m.ModelF(), Leaf: m.ModelLeaf(),
				P: 4, G: 4096, Gamma: 1.0 / 160,
				Bytes: galg.GPUBytes(0, 0, 1), HasGPU: true,
			}
			dec, err := srv.Tuner().Decide(0, sp)
			if err != nil {
				t.Fatal(err)
			}
			// Calibrated is not asserted: a bucket where one side always wins
			// never accumulates the losing side's observations, by design. The
			// argmin invariant must hold either way.
			for name, cost := range dec.Costs {
				if cost < dec.Predicted {
					t.Errorf("%s n=%d: rejected %s cost %g beats chosen %s cost %g",
						alg.Name(), n, name, cost, dec.Strategy, dec.Predicted)
				}
			}
		}
	}
}

// TestAutoBacklogSharesUnits pins PlaceModeledWork's backlog unit on a
// 2-device autonomous pool: a calibrated auto job weighs on its device's
// backlog like a fixed job of the same shape. (Its decision predicts
// seconds, about 1e-3 here, while modeled work is about 1e5 units; a
// backlog summing both made a device full of auto jobs look empty, and the
// mix below stacked four of five jobs on device 0.) Every job blocks in a
// gate hook, so placement sees the whole backlog.
func TestAutoBacklogSharesUnits(t *testing.T) {
	srv, err := serve.NewPool(newPoolBackends(t, 2), serve.WithMaxInFlight(4),
		serve.WithAutoTuner(autotune.NewTuner(autotune.WithMinObservations(1))))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	const n = 1 << 12
	// Warm device 0's calibration for the bucket on both sides: on an idle
	// pool every job places on the lower device id.
	for _, strat := range []serve.Strategy{serve.BreadthFirstCPU, serve.GPUOnly} {
		ms, err := mergesort.New(workload.Uniform(n, 1))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(ctx, serve.Job{Alg: ms, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	ms, _ := mergesort.New(workload.Uniform(n, 1))
	sp := autotune.Spec{
		Alg: ms.Name(), N: n, A: ms.Arity(), B: ms.Shrink(), Levels: ms.Levels(),
		F: ms.ModelF(), Leaf: ms.ModelLeaf(), P: 2, G: 4, Gamma: 0.5,
		Bytes: ms.GPUBytes(0, 0, 1), HasGPU: true,
	}
	if dec, err := srv.Tuner().Decide(0, sp); err != nil || !dec.Calibrated {
		t.Fatalf("device 0 decision %+v (err %v) is not calibrated: the test must mix units", dec, err)
	}
	before := srv.Stats()
	if before.Devices[1].Placements != 0 {
		t.Fatalf("warm-up placed %d jobs on device 1, want 0", before.Devices[1].Placements)
	}

	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	hold := core.WithHooks(core.Hooks{Gate: func(_ bool, run, _ func()) { <-gate; run() }})
	var handles []*serve.Handle
	for i, strat := range []serve.Strategy{serve.Auto, serve.BreadthFirstCPU, serve.Auto, serve.Auto, serve.BreadthFirstCPU} {
		ms, err := mergesort.New(workload.Uniform(n, int64(i+2)))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(ctx, serve.Job{Alg: ms, Strategy: strat}, hold)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		waitInFlight(t, srv, i+1)
	}
	st := srv.Stats()
	openGate()
	for _, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	d0 := st.Devices[0].Placements - before.Devices[0].Placements
	d1 := st.Devices[1].Placements - before.Devices[1].Placements
	// Equal modeled costs alternate devices, ties to the lower id.
	if d0 != 3 || d1 != 2 {
		t.Errorf("placements (d0, d1) = (%d, %d), want (3, 2)", d0, d1)
	}
}
