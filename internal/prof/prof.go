// Package prof is the simulator's host-side phase profiler — a flight
// recorder for the simulation loop itself. Where package obs observes the
// *simulated* chip (probe events, spans, energy, thermal), prof observes
// the *simulator*: how the host's wall-clock time divides across the
// loop's phases (CPU pipeline events, protocol/cluster events, the network
// tick, thermal stepping, sampling), what the process allocates, and how
// many simulated cycles per host second the whole thing sustains.
//
// The measurement discipline is strictly one-way: phase boundaries take
// monotonic clock readings (time.Now's monotonic component) and fold the
// deltas into value-typed accumulators; nothing measured ever feeds back
// into simulation state, so an attached profiler is provably
// non-perturbing — attached runs produce bit-identical Results to detached
// runs (TestProfileDoesNotPerturb), and the record path allocates nothing
// (TestRecordPathAllocs).
package prof

import (
	"math"
	"math/bits"
	"runtime"
	"time"
)

// Phase identifies one slice of the simulation loop's wall-clock budget.
// The phases tile an Engine.Run: every nanosecond of a profiled run lands
// in exactly one phase, with PhaseEngine absorbing the residual (wheel
// bookkeeping, loop overhead) so the per-phase shares sum to 100% of loop
// time by construction.
type Phase uint8

const (
	// PhaseCPU is the core pipeline: fetch-execute resumption and L1/L2
	// access initiation events (core's evCPU* kinds).
	PhaseCPU Phase = iota
	// PhaseProtocol is the cluster/coherence machinery: tag serves,
	// migrations, replicas, data replies, and memory-path events — the
	// event-engine drain minus the CPU kinds.
	PhaseProtocol
	// PhaseNet is the fabric tick (routers, then pillar buses, then
	// active-list pruning). Its report name stays "net-serial", the name
	// existing readers of the phase table look it up by.
	PhaseNet
	// PhaseThermal is the thermal tracker's tick: energy-window flushes,
	// RC grid steps, and the DTM controller's actuation when attached.
	PhaseThermal
	// PhaseSampler is the interval metrics sampler's tick.
	PhaseSampler
	// PhaseOther is any registered ticker the classifier does not know.
	PhaseOther
	// PhaseEngine is the engine's own bookkeeping, attributed by
	// subtraction at report time: wheel migration and run-loop overhead
	// not inside any timed section.
	PhaseEngine

	phaseCount
)

// NumPhases is the number of distinct phases (the size of per-phase
// accumulator arrays).
const NumPhases = int(phaseCount)

var phaseNames = [NumPhases]string{
	"cpu", "protocol", "net-serial",
	"thermal", "sampler", "other", "engine",
}

// String returns the phase's report name.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// histBuckets sizes the per-phase latency histogram: quarter-octave
// log2 buckets (4 per power of two) covering 1ns to ~2^40ns, giving P95
// estimates within ~12% without per-sample storage.
const histBuckets = 160

// bucketOf maps a duration to its histogram bucket.
func bucketOf(ns int64) int {
	v := uint64(ns)
	if v == 0 {
		v = 1
	}
	o := bits.Len64(v) - 1
	var sub uint64
	if o >= 2 {
		sub = (v >> uint(o-2)) & 3
	}
	idx := o*4 + int(sub)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketUpper returns the largest duration mapping to bucket idx.
func bucketUpper(idx int) int64 {
	o := idx / 4
	sub := int64(idx % 4)
	if o < 2 {
		return int64(1)<<uint(o+1) - 1
	}
	base := int64(1) << uint(o)
	return base + (sub+1)<<uint(o-2) - 1
}

// phaseAcc accumulates one phase's samples: plain value-typed counters
// plus a log-bucketed histogram, so recording is a handful of integer
// stores — no allocation, no locks (the recorder is single-writer by
// construction: every Record call happens on the simulation goroutine).
type phaseAcc struct {
	count uint64
	ns    int64
	max   int64
	hist  [histBuckets]uint64
}

// percentile returns the p-th percentile sample duration, clamped to the
// observed maximum (the histogram's bucket bound can overshoot it).
func (a *phaseAcc) percentile(p float64) int64 {
	if a.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(a.count) * p / 100))
	var cum uint64
	for i := range a.hist {
		cum += a.hist[i]
		if cum >= target {
			if ub := bucketUpper(i); ub < a.max {
				return ub
			}
			return a.max
		}
	}
	return a.max
}

// maxWindows bounds the rolling throughput series: one window per
// Engine.Run call, oldest dropped first. 512 comfortably covers a
// chunked runner job (warm + measure at 64 chunks each).
const maxWindows = 512

// window is one Engine.Run's worth of throughput: host-relative start,
// duration, cycles advanced, and the per-phase time accrued inside it.
type window struct {
	startNs int64
	durNs   int64
	cycles  uint64
	phaseNs [NumPhases]int64
}

// Recorder is the flight recorder: phase accumulators, the rolling
// run-window ring, and allocation baselines. Create one with NewRecorder,
// hand it to the engine via its SetProfiler hook (core.System.AttachProfile
// does the wiring), and read it out with Report or Snap between engine
// runs.
type Recorder struct {
	t0     time.Time
	phases [NumPhases]phaseAcc

	runNs  int64
	runs   uint64
	cycles uint64

	windows     []window
	lastPhaseNs [NumPhases]int64

	m0   runtime.MemStats
	host HostInfo
}

// NewRecorder returns a recorder stamped with the host's shape and the
// process's current allocation counters as the delta baseline.
func NewRecorder() *Recorder {
	r := &Recorder{
		t0:      time.Now(),
		windows: make([]window, 0, maxWindows),
		host: HostInfo{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	runtime.ReadMemStats(&r.m0)
	return r
}

// Record folds one phase sample into the accumulators. It is the hot
// path — a few integer stores, zero allocations (pinned by
// TestRecordPathAllocs) — and must only be called from the simulation
// goroutine.
func (r *Recorder) Record(p Phase, ns int64) {
	a := &r.phases[p]
	a.count++
	a.ns += ns
	if ns > a.max {
		a.max = ns
	}
	a.hist[bucketOf(ns)]++
}

// RunStart marks the beginning of an Engine.Run window and returns its
// host-relative start time for the matching RunEnd.
func (r *Recorder) RunStart() int64 { return time.Since(r.t0).Nanoseconds() }

// RunEnd closes a run window: it accumulates the run's wall time and
// cycle count and appends one entry to the rolling throughput series
// (per-phase deltas since the previous window). Oldest windows drop
// first; the append never allocates once the ring is at capacity.
func (r *Recorder) RunEnd(startNs int64, cycles uint64) {
	endNs := time.Since(r.t0).Nanoseconds()
	w := window{startNs: startNs, durNs: endNs - startNs, cycles: cycles}
	r.runs++
	r.runNs += w.durNs
	r.cycles += cycles
	for i := range r.phases {
		cur := r.phases[i].ns
		w.phaseNs[i] = cur - r.lastPhaseNs[i]
		r.lastPhaseNs[i] = cur
	}
	if len(r.windows) == cap(r.windows) {
		copy(r.windows, r.windows[1:])
		r.windows = r.windows[:len(r.windows)-1]
	}
	r.windows = append(r.windows, w)
}
