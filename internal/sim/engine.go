// Package sim provides the cycle-stepped simulation engine shared by every
// timed component: a global clock, a Ticker registry for components that do
// work every cycle (routers, buses), and an event queue for fixed-latency
// completions (tag lookups, bank accesses, memory fetches).
//
// The event queue is a hierarchical timing wheel specialized for the short
// fixed latencies that dominate the workload: events within the 256-cycle
// horizon land in an O(1) ring of per-cycle buckets, the rest in a small
// overflow heap that drains into the ring as the clock approaches. Events
// are plain structs stored by value in the bucket slices, so steady-state
// scheduling performs no per-event heap allocation. Same-cycle ordering is
// schedule order: per-bucket FIFO replaces the binary heap's (cycle, seq)
// tie-break with identical semantics.
package sim

import (
	"time"

	"repro/internal/prof"
)

// Ticker is a component that performs work on every clock edge.
type Ticker interface {
	// Tick advances the component by one cycle. The current cycle number is
	// passed for components that stamp or age state.
	Tick(cycle uint64)
}

// Handler receives typed events scheduled with AfterEvent. The kind and
// data are opaque to the engine; the scheduling component dispatches on
// them, which avoids allocating a capturing closure per scheduled event on
// hot paths.
type Handler interface {
	HandleEvent(kind uint8, data any)
}

// wheelBits sizes the near wheel: 2^wheelBits per-cycle buckets. 256 covers
// every fixed latency in the simulated machine except the DRAM access.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// event is a scheduled typed (handler, kind, data) triple, dispatched
// without allocation.
type event struct {
	at   uint64
	seq  uint64 // global schedule order, for the overflow heap's tie-break
	h    Handler
	data any
	kind uint8
}

// Engine owns the global clock. Each Step runs, in order: all events due at
// the current cycle, then every registered ticker, then advances the clock.
type Engine struct {
	cycle uint64
	seq   uint64

	// buckets is the near wheel: bucket[c&wheelMask] holds the events for
	// cycle c, c in [cycle, cycle+wheelSize). Within a bucket events fire
	// in append (schedule) order.
	buckets [wheelSize][]event
	inWheel int // events currently stored in the near wheel

	// overflow holds events beyond the wheel horizon, ordered by (at, seq);
	// Step migrates them into the wheel as their cycle approaches.
	overflow []event

	// overdue holds events scheduled for a cycle whose bucket has already
	// been drained (a zero-delay AfterEvent from a ticker). They fire at
	// the start of the next Step, before that cycle's bucket.
	overdue []event

	// drained is true between this cycle's bucket drain and the clock
	// advance; a same-cycle event scheduled in that window must go to
	// overdue rather than the already-visited bucket.
	drained bool

	tickers []Ticker

	// prof, when non-nil, receives host-side wall-clock attribution for
	// every step: each fired event and each ticker's Tick is timed with
	// monotonic clock deltas and folded into the recorder under the phase
	// the classifiers assign (see SetProfiler). Unprofiled, each timed
	// section costs one nil check.
	prof         *prof.Recorder
	classifyEv   func(kind uint8) prof.Phase
	classifyTick func(t Ticker) prof.Phase
	// tickerPhase caches classifyTick per registered ticker, in
	// registration order.
	tickerPhase []prof.Phase
}

// NewEngine returns an engine at cycle 0 with no components.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.cycle }

// Register adds a ticker that will run every cycle, in registration order.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, t)
	if e.classifyTick != nil {
		e.tickerPhase = append(e.tickerPhase, e.classifyTick(t))
	}
}

// SetProfiler attaches a host-side phase profiler: every fired event is
// classified by eventPhase and every ticker by tickerPhase. Tickers
// registered later are classified on registration. A nil recorder
// detaches. Attribution never feeds back into simulation state,
// so a profiled run is bit-identical to an unprofiled one.
func (e *Engine) SetProfiler(r *prof.Recorder, eventPhase func(kind uint8) prof.Phase, tickerPhase func(Ticker) prof.Phase) {
	e.prof = r
	e.tickerPhase = e.tickerPhase[:0]
	if r == nil {
		e.classifyEv, e.classifyTick = nil, nil
		return
	}
	e.classifyEv, e.classifyTick = eventPhase, tickerPhase
	for _, t := range e.tickers {
		e.tickerPhase = append(e.tickerPhase, tickerPhase(t))
	}
}

// schedule inserts an event at its cycle (never earlier than the current
// one).
func (e *Engine) schedule(ev event) {
	switch {
	case ev.at == e.cycle && e.drained:
		// This cycle's drain already ran (scheduled from a ticker); fire
		// first thing next Step.
		e.overdue = append(e.overdue, ev)
	case ev.at-e.cycle < wheelSize:
		// A same-cycle event scheduled from an event callback or between
		// Steps lands in the current, not yet drained, bucket.
		e.buckets[ev.at&wheelMask] = append(e.buckets[ev.at&wheelMask], ev)
		e.inWheel++
	default:
		e.pushOverflow(ev)
	}
}

// AfterEvent schedules a typed event delay cycles from now: h.HandleEvent
// (kind, data) runs at that cycle, after every event scheduled earlier for
// the same cycle. From an event callback a delay of 0 fires later in the
// same Step; from a ticker (the current cycle's events have already fired)
// it fires at the start of the next Step. Scheduling captures no closure,
// so it allocates nothing once the wheel's bucket slices have grown to
// steady-state capacity; data should be a pointer (storing a pointer in an
// interface does not allocate).
func (e *Engine) AfterEvent(delay uint64, h Handler, kind uint8, data any) {
	e.seq++
	e.schedule(event{at: e.cycle + delay, seq: e.seq, h: h, kind: kind, data: data})
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.inWheel + len(e.overflow) + len(e.overdue) }

// migrate pulls overflow events whose cycle entered the wheel horizon into
// their buckets. The overflow heap pops in (at, seq) order, preserving
// schedule order among migrated events; the rare append behind an event
// scheduled directly into the bucket is repaired by a seq sort.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 && e.overflow[0].at < e.cycle+wheelSize {
		ev := e.popOverflow()
		b := e.buckets[ev.at&wheelMask]
		if n := len(b); n > 0 && b[n-1].seq > ev.seq {
			// An event for this cycle was scheduled directly into the
			// bucket before this (older) one migrated: insert in seq order.
			i := n
			for i > 0 && b[i-1].seq > ev.seq {
				i--
			}
			b = append(b, event{})
			copy(b[i+1:], b[i:])
			b[i] = ev
		} else {
			b = append(b, ev)
		}
		e.buckets[ev.at&wheelMask] = b
		e.inWheel++
	}
}

// Step advances the simulation by one cycle: due events fire first (they may
// schedule more events, including for this same cycle), then tickers run.
// With a profiler attached, chained monotonic clock readings attribute each
// fired event's delta to its classified phase and time each ticker around
// its Tick; everything unclaimed falls to the engine phase by subtraction
// at report time.
func (e *Engine) Step() {
	e.migrate()
	var last time.Time
	if e.prof != nil {
		last = time.Now()
	}
	if len(e.overdue) > 0 {
		// Events whose cycle was drained before they were scheduled; they
		// precede this cycle's bucket (their cycle stamp is older). Firing
		// them cannot grow overdue: the current bucket is undrained, so
		// same-cycle reschedules land there.
		for i := 0; i < len(e.overdue); i++ {
			ev := &e.overdue[i]
			ev.h.HandleEvent(ev.kind, ev.data)
			if e.prof != nil {
				last = e.recordEvent(ev.kind, last)
			}
		}
		clear(e.overdue)
		e.overdue = e.overdue[:0]
	}
	slot := e.cycle & wheelMask
	for i := 0; i < len(e.buckets[slot]); i++ {
		ev := e.buckets[slot][i] // copy: firing may append and reallocate
		ev.h.HandleEvent(ev.kind, ev.data)
		e.inWheel--
		if e.prof != nil {
			last = e.recordEvent(ev.kind, last)
		}
	}
	clear(e.buckets[slot])
	e.buckets[slot] = e.buckets[slot][:0]
	e.drained = true
	for ti, t := range e.tickers {
		if e.prof == nil {
			t.Tick(e.cycle)
			continue
		}
		t0 := time.Now()
		t.Tick(e.cycle)
		e.prof.Record(e.tickerPhase[ti], time.Since(t0).Nanoseconds())
	}
	e.drained = false
	e.cycle++
}

// recordEvent attributes the wall time since the previous reading to the
// just-fired event's phase and returns the new reading. Chaining readings
// costs one clock call per event instead of two.
func (e *Engine) recordEvent(kind uint8, last time.Time) time.Time {
	now := time.Now()
	e.prof.Record(e.classifyEv(kind), now.Sub(last).Nanoseconds())
	return now
}

// Run advances the simulation by n cycles. With a profiler attached each
// Run is one throughput window in the recorder's rolling series (cycles
// advanced over wall time).
func (e *Engine) Run(n uint64) {
	var start int64
	if e.prof != nil {
		start = e.prof.RunStart()
	}
	for end := e.cycle + n; e.cycle < end; {
		e.Step()
	}
	if e.prof != nil {
		e.prof.RunEnd(start, n)
	}
}

// pushOverflow inserts an event into the overflow min-heap, ordered by
// (at, seq). The heap stores plain structs and is maintained by hand, so no
// interface{} boxing occurs.
func (e *Engine) pushOverflow(ev event) {
	e.overflow = append(e.overflow, ev)
	i := len(e.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(&e.overflow[i], &e.overflow[parent]) {
			break
		}
		e.overflow[i], e.overflow[parent] = e.overflow[parent], e.overflow[i]
		i = parent
	}
}

// popOverflow removes and returns the earliest overflow event.
func (e *Engine) popOverflow() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the payload pointers
	e.overflow = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && overflowLess(&h[r], &h[l]) {
			child = r
		}
		if !overflowLess(&h[child], &h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

func overflowLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
