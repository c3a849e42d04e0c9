package sim

import (
	"testing"
)

// Timing-wheel-specific coverage: delays beyond the wheel horizon, overflow
// migration ordering, overdue events, and the zero-allocation guarantee the
// hot path relies on.

func TestOverflowDelayBeyondWheel(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	// MemoryCycles-style delay, far past the 256-cycle wheel horizon.
	after(e, 1000, func() { fired = append(fired, e.Now()) })
	after(e, 300, func() { fired = append(fired, e.Now()) })
	after(e, wheelSize, func() { fired = append(fired, e.Now()) }) // first overflow cycle
	after(e, wheelSize-1, func() { fired = append(fired, e.Now()) })
	e.Run(1100)
	want := []uint64{wheelSize - 1, wheelSize, 300, 1000}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestOverflowSameCycleKeepsScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		after(e, 500, func() { order = append(order, i) })
	}
	e.Run(600)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestOverflowMigrationBehindDirectInsert(t *testing.T) {
	// An event scheduled early for cycle 300 sits in the overflow heap. At
	// cycle 45 (= 300 - wheelSize + 1, before the Step that migrates it) a
	// second event is scheduled directly into bucket 300 with a larger seq.
	// Migration must insert the older event in front of it.
	e := NewEngine()
	var order []int
	after(e, 300, func() { order = append(order, 1) })
	e.Run(300 - wheelSize + 1)
	after(e, wheelSize-1, func() { order = append(order, 2) }) // also cycle 300
	e.Run(300)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestWheelWrapsRepeatedly(t *testing.T) {
	// A self-rescheduling event crossing the wheel boundary many times.
	e := NewEngine()
	var fired []uint64
	var step func()
	step = func() {
		fired = append(fired, e.Now())
		if len(fired) < 8 {
			after(e, 100, step)
		}
	}
	after(e, 100, step)
	e.Run(1000)
	if len(fired) != 8 {
		t.Fatalf("fired %d times: %v", len(fired), fired)
	}
	for i, c := range fired {
		if c != uint64(100*(i+1)) {
			t.Fatalf("fired = %v", fired)
		}
	}
}

func TestZeroDelayFromTickerFiresBeforeNextBucket(t *testing.T) {
	// A zero-delay event issued during the ticker phase of cycle 5 carries cycle
	// stamp 5; it must fire at the start of Step 6 ahead of events scheduled
	// for cycle 6 (matching the old heap's (cycle, seq) order).
	e := NewEngine()
	var order []string
	after(e, 6, func() { order = append(order, "six") })
	done := false
	e.Register(TickerFunc(func(c uint64) {
		if c == 5 && !done {
			done = true
			after(e, 0, func() { order = append(order, "late5") })
		}
	}))
	e.Run(10)
	if len(order) != 2 || order[0] != "late5" || order[1] != "six" {
		t.Fatalf("order = %v, want [late5 six]", order)
	}
}

// nopHandler is a Handler for the allocation tests.
type nopHandler struct{ n int }

func (h *nopHandler) HandleEvent(kind uint8, data any) { h.n++ }

func TestAfterEventStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &nopHandler{}
	// Warm the bucket slices across the whole wheel.
	for i := 0; i < 2*wheelSize; i++ {
		e.AfterEvent(1, h, 0, h)
		e.Step()
	}
	avg := testing.AllocsPerRun(200, func() {
		e.AfterEvent(1, h, 0, h)
		e.AfterEvent(5, h, 1, h)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("AfterEvent+Step allocates %.1f objects/op, want 0", avg)
	}
}
