package sim

import "testing"

// TickerFunc adapts a plain function to the Ticker interface.
type TickerFunc func(cycle uint64)

// Tick calls the function.
func (f TickerFunc) Tick(cycle uint64) { f(cycle) }

// funcHandler is a Handler whose event data is the callback to run, so the
// ordering tests can schedule inline closures through AfterEvent.
type funcHandler struct{}

func (funcHandler) HandleEvent(_ uint8, data any) { data.(func())() }

// after schedules fn delay cycles from now through AfterEvent.
func after(e *Engine, delay uint64, fn func()) {
	e.AfterEvent(delay, funcHandler{}, 0, fn)
}

func TestEngineClock(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatal("fresh engine must start at cycle 0")
	}
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	after(e, 5, func() { order = append(order, 2) })
	after(e, 3, func() { order = append(order, 1) })
	after(e, 5, func() { order = append(order, 3) }) // same cycle, later schedule
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEventFiresAtExactCycle(t *testing.T) {
	e := NewEngine()
	var fired uint64
	after(e, 7, func() { fired = e.Now() })
	e.Run(20)
	if fired != 7 {
		t.Fatalf("event fired at %d, want 7", fired)
	}
}

func TestZeroDelayEventRunsNextStep(t *testing.T) {
	e := NewEngine()
	ran := false
	after(e, 0, func() { ran = true })
	e.Step()
	if !ran {
		t.Fatal("zero-delay event must run on the next Step")
	}
}

func TestEventMayScheduleSameCycle(t *testing.T) {
	e := NewEngine()
	var hits []uint64
	after(e, 2, func() {
		hits = append(hits, e.Now())
		after(e, 0, func() { hits = append(hits, e.Now()) })
	})
	e.Run(5)
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 2 {
		t.Fatalf("hits = %v, want [2 2]", hits)
	}
}

func TestTickersRunEveryCycle(t *testing.T) {
	e := NewEngine()
	var ticks []uint64
	e.Register(TickerFunc(func(c uint64) { ticks = append(ticks, c) }))
	e.Run(3)
	if len(ticks) != 3 || ticks[0] != 0 || ticks[2] != 2 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEventsBeforeTickersWithinStep(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register(TickerFunc(func(c uint64) {
		if c == 1 {
			order = append(order, "tick")
		}
	}))
	after(e, 1, func() { order = append(order, "event") })
	e.Run(3)
	if len(order) != 2 || order[0] != "event" || order[1] != "tick" {
		t.Fatalf("order = %v, want [event tick]", order)
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	after(e, 1, func() {})
	after(e, 2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run(5)
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
}
