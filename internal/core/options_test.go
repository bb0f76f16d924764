package core_test

import (
	"context"
	"reflect"
	"testing"

	. "repro/internal/core"
	"repro/internal/hpu"
)

func TestRunConfigDefaults(t *testing.T) {
	c := NewRunConfig()
	if c.Coalesce || c.SplitSet || c.Hooks != nil || c.Observe != nil {
		t.Errorf("zero options resolved to non-default config %+v", c)
	}
	if c.Priority != 1 {
		t.Errorf("default priority = %d, want 1", c.Priority)
	}
}

func TestWithPriorityClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-3, 1}, {0, 1}, {1, 1}, {7, 7}} {
		if got := NewRunConfig(WithPriority(tc.in)).Priority; got != tc.want {
			t.Errorf("WithPriority(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestWithSplitNegativeRestoresDefault(t *testing.T) {
	c := NewRunConfig(WithSplit(3))
	if !c.SplitSet || c.Split != 3 {
		t.Errorf("WithSplit(3) = %+v", c)
	}
	c = NewRunConfig(WithSplit(3), WithSplit(-1))
	if c.SplitSet {
		t.Errorf("WithSplit(-1) did not restore the default: %+v", c)
	}
}

func TestWithObserverChains(t *testing.T) {
	var order []string
	c := NewRunConfig(
		WithObserver(func(*Report) { order = append(order, "first") }),
		WithObserver(nil),
		WithObserver(func(*Report) { order = append(order, "second") }),
	)
	c.Observe(&Report{})
	if want := []string{"first", "second"}; !reflect.DeepEqual(order, want) {
		t.Errorf("observers ran as %v, want %v", order, want)
	}
}

// TestWithSplitRestoreEquivalence asserts WithSplit(-1) undoes an earlier
// WithSplit at execution level too: the run is identical — same batch
// sequence on the deterministic simulator, same virtual makespan — to one
// that never set a split level.
func TestWithSplitRestoreEquivalence(t *testing.T) {
	plain := newProbe(2, 6)
	repPlain, err := RunAdvancedHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), plain,
		0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	restored := newProbe(2, 6)
	repRestored, err := RunAdvancedHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), restored,
		0.3, 4, WithSplit(2), WithSplit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if repPlain.Seconds != repRestored.Seconds {
		t.Errorf("makespans differ: default %g, WithSplit(-1) %g", repPlain.Seconds, repRestored.Seconds)
	}
	if !reflect.DeepEqual(plain.events, restored.events) {
		t.Errorf("batch sequences differ:\ndefault %v\nWithSplit(-1) %v", plain.events, restored.events)
	}
}

// TestWithHooksAppends asserts WithHooks appends rather than replaces: two
// hook sets attached by separate options both observe every batch.
func TestWithHooksAppends(t *testing.T) {
	var a, b int
	be := hpu.MustSim(hpu.HPU1())
	_, err := RunSequentialCtx(context.Background(), be, newProbe(2, 3),
		WithHooks(Hooks{Batch: func(bool, Batch, float64, float64) { a++ }}),
		WithHooks(Hooks{Batch: func(bool, Batch, float64, float64) { b++ }}))
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 || a != b {
		t.Errorf("hook sets saw %d and %d batches, want the same nonzero count", a, b)
	}
}
