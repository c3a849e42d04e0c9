// Package digest computes incremental state digests of a running
// simulation. A Recorder periodically folds every stateful subsystem —
// CPUs and L1s, L2 tags and the MSI directory, router queues and
// in-flight packets, dTDMA slot state, the event engine's wheel and
// heap, the thermal grid, DTM hysteresis masks, and the trace RNGs —
// into per-subsystem hash chains. The chains are themselves chained, so
// one final 64-bit digest attests the whole run, while the per-lane
// sub-digests identify *where* state first differed when two runs
// disagree.
//
// The recorder is strictly an observer: it reads simulator state and
// writes only into its own arrays, so an attached run is bit-identical
// to a detached one (pinned by TestDigestDoesNotPerturb), and the
// record path allocates nothing once the stream slice is grown
// (Reserve pre-grows it; the alloc pin covers the steady state).
package digest

import "math"

// Lane names one hash chain — one stateful subsystem folded per
// snapshot. Lanes are ordered; the overall digest chains them in this
// order, and Compare reports the first differing lane of the first
// differing snapshot as the offending subsystem.
type Lane int

const (
	// LaneCPU covers per-CPU architectural state: instruction and
	// access counters, blocked/stalled refs, store credits, and both
	// private L1 caches (tags, state bits, PLRU).
	LaneCPU Lane = iota
	// LaneCache covers the shared L2: cluster bank tags and state
	// bits, tag-port reservations, the MSI directory (line locations,
	// in-flight transactions, replica sets), and the protocol metric
	// counters.
	LaneCache
	// LaneNoC covers the mesh: per-router source queues, virtual
	// channels, in-flight flits and their packets, and the fabric's
	// injection/delivery bookkeeping.
	LaneNoC
	// LaneDTDMA covers the vertical pillar buses: transmit buffers,
	// the slot wheel position, and pending-flit counters.
	LaneDTDMA
	// LaneEngine covers the event engine: cycle, sequence counter,
	// timing wheel, overflow heap, and overdue list.
	LaneEngine
	// LaneThermal covers the thermal grid's power and temperature
	// fields.
	LaneThermal
	// LaneDTM covers the DTM controller's hysteresis masks, duty
	// slots, and report counters.
	LaneDTM
	// LaneRNG covers the trace generators: xorshift state and region
	// cursors per CPU.
	LaneRNG
	// NumLanes is the number of per-subsystem hash chains.
	NumLanes = int(LaneRNG) + 1
)

var laneNames = [NumLanes]string{
	"cpu", "cache", "noc", "dtdma", "engine", "thermal", "dtm", "rng",
}

// String returns the lane's short name (used in reports, sampler
// columns, and divergence diagnostics).
func (l Lane) String() string {
	if l < 0 || int(l) >= NumLanes {
		return "unknown"
	}
	return laneNames[l]
}

// Mix is the SplitMix64 finalizer: a cheap, high-quality 64-bit
// avalanche. The chains fold state word-by-word as
// cur = Mix(cur ^ word), so every bit of every folded word diffuses
// into the running digest. Exported so subsystem walkers can build
// order-independent folds (commutative XOR of per-entry Mix chains)
// for map-backed state whose iteration order Go randomizes.
func Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Record is one digest snapshot: the cycle it was taken at, the
// cumulative per-lane chain values, and the cumulative overall digest
// (the lanes chained together, chained onto the previous record's
// digest). Because every field is cumulative, two streams that agree
// at record i agree on all simulator state folded up to and including
// cycle Record[i].Cycle — which is what lets Compare binary-search for
// the first divergence instead of scanning.
type Record struct {
	Cycle  uint64
	Lanes  [NumLanes]uint64
	Digest uint64
}

// LaneDigest pairs a lane name with its final chain value for the
// JSON report.
type LaneDigest struct {
	Lane   string `json:"lane"`
	Digest string `json:"digest"`
}

// Report is the JSON-facing summary attached to Results.Digests. The
// full snapshot stream stays in memory only (the bisector and the
// invariance tests consume it); serializing thousands of records
// into every Results blob would bloat the result cache for no reader.
type Report struct {
	// Interval is the snapshot period in cycles.
	Interval uint64 `json:"interval"`
	// Records is the number of snapshots taken.
	Records int `json:"records"`
	// Digest is the final cumulative digest as 16 hex digits — the
	// one value that attests the whole run.
	Digest string `json:"digest"`
	// Lanes holds the final per-subsystem chain values, in lane
	// order.
	Lanes []LaneDigest `json:"lanes"`
	// Stream is the in-memory snapshot sequence; deliberately not
	// serialized (see type comment).
	Stream []Record `json:"-"`
}

// Recorder is the incremental digest engine. It implements sim.Ticker:
// every interval cycles the walker installed by the owning system
// folds all subsystem state through BeginLane/Fold, and the recorder
// appends one cumulative Record. All mutable state lives in fixed
// arrays plus one amortized-append slice, so the record path is
// allocation-free in steady state.
type Recorder struct {
	interval uint64
	walk     func(*Recorder)

	lane   Lane              // lane currently being folded
	cur    [NumLanes]uint64  // working chain values for this snapshot
	chains [NumLanes]uint64  // cumulative per-lane chains
	digest uint64            // cumulative overall digest
	stream []Record
}

// NewRecorder returns a recorder snapshotting every interval cycles.
// It panics on interval < 1 (like obs.NewSampler): a zero interval is
// a caller bug, not a mode.
func NewRecorder(interval uint64) *Recorder {
	if interval < 1 {
		panic("digest: interval must be >= 1")
	}
	return &Recorder{interval: interval}
}

// Interval returns the snapshot period in cycles.
func (r *Recorder) Interval() uint64 { return r.interval }

// SetWalker installs the state-traversal function invoked at each
// snapshot. The walker must call BeginLane for each lane in order and
// fold that subsystem's state; it runs after the engine drains the
// cycle's events, so it observes the state the cycle's tickers see.
func (r *Recorder) SetWalker(walk func(*Recorder)) { r.walk = walk }

// BeginLane switches folding to lane l. Subsequent Fold calls extend
// that lane's chain.
func (r *Recorder) BeginLane(l Lane) { r.lane = l }

// Fold chains one state word into the current lane.
func (r *Recorder) Fold(x uint64) {
	r.cur[r.lane] = Mix(r.cur[r.lane] ^ x)
}

// FoldBool folds a flag (1 for true, 0 for false — still chained, so
// position matters).
func (r *Recorder) FoldBool(b bool) {
	var x uint64
	if b {
		x = 1
	}
	r.Fold(x)
}

// FoldInt folds a signed integer by bit pattern.
func (r *Recorder) FoldInt(v int) { r.Fold(uint64(v)) }

// FoldFloat folds a float64 by IEEE-754 bit pattern — exact, so two runs
// whose floating-point state differs in the last ulp still diverge.
func (r *Recorder) FoldFloat(f float64) { r.Fold(math.Float64bits(f)) }

// Mixed folds x into the current lane without touching the chain and
// returns the chained value — the building block for commutative
// folds over Go maps: hash each entry with Mix chains off a fixed
// seed, XOR the per-entry results (order-independent), then Fold the
// XOR once.
func Mixed(seed, x uint64) uint64 { return Mix(seed ^ x) }

// Reserve pre-grows the snapshot stream to hold n records, so a sized
// run's record path performs no appends-with-growth. AttachDigest
// callers size it from the planned run length; the alloc-pin test
// measures the post-Reserve steady state.
func (r *Recorder) Reserve(n int) {
	if cap(r.stream)-len(r.stream) >= n {
		return
	}
	grown := make([]Record, len(r.stream), len(r.stream)+n)
	copy(grown, r.stream)
	r.stream = grown
}

// Tick implements sim.Ticker: on interval boundaries it runs the
// walker and appends one cumulative snapshot. Cycle 0 is skipped (the
// sampler does the same — the measurement window opens after warmup,
// and a cycle-0 snapshot would digest pre-reset state).
func (r *Recorder) Tick(cycle uint64) {
	if cycle == 0 || cycle%r.interval != 0 || r.walk == nil {
		return
	}
	r.cur = r.chains
	r.walk(r)
	r.chains = r.cur
	d := r.digest
	for l := 0; l < NumLanes; l++ {
		d = Mix(d ^ r.chains[l])
	}
	r.digest = d
	r.stream = append(r.stream, Record{Cycle: cycle, Lanes: r.chains, Digest: d})
}

// Records returns the snapshot stream (live slice; callers must not
// mutate it).
func (r *Recorder) Records() []Record { return r.stream }

// Digest returns the current cumulative overall digest.
func (r *Recorder) Digest() uint64 { return r.digest }

// LaneValue returns lane l's current cumulative chain value.
func (r *Recorder) LaneValue(l Lane) uint64 { return r.chains[l] }

// Report summarizes the stream for Results.Digests.
func (r *Recorder) Report() *Report {
	rep := &Report{
		Interval: r.interval,
		Records:  len(r.stream),
		Digest:   hex16(r.digest),
		Stream:   r.stream,
	}
	rep.Lanes = make([]LaneDigest, NumLanes)
	for l := 0; l < NumLanes; l++ {
		rep.Lanes[l] = LaneDigest{Lane: Lane(l).String(), Digest: hex16(r.chains[l])}
	}
	return rep
}

// hex16 formats a digest as 16 lowercase hex digits without pulling
// in fmt (keeps the package dependency-free).
func hex16(x uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[x&0xF]
		x >>= 4
	}
	return string(b[:])
}

// Divergence locates where two digest streams first disagree.
type Divergence struct {
	// Cycle is the first snapshot cycle whose digests differ. State
	// diverged somewhere in (Cycle-interval, Cycle]; rerunning with
	// interval 1 narrows it to the exact cycle.
	Cycle uint64
	// Lane is the first differing subsystem chain (in lane order) at
	// that snapshot — the place to start looking.
	Lane Lane
	// Index is the snapshot's index in both streams.
	Index int
}

// Compare binary-searches two digest streams for the first divergent
// snapshot and returns it, or ok=false when the common prefix agrees
// everywhere. Streams must come from runs with the same interval; the
// comparison covers min(len(a), len(b)) records. The search is valid
// because Record.Digest is cumulative: agreement at index i implies
// agreement at every index before it.
func Compare(a, b []Record) (d Divergence, ok bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 || a[n-1].Digest == b[n-1].Digest {
		return Divergence{}, false
	}
	// Invariant: a[hi] differs, everything before lo agrees.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid].Digest == b[mid].Digest {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	d.Index = lo
	d.Cycle = a[lo].Cycle
	d.Lane = Lane(0)
	for l := 0; l < NumLanes; l++ {
		if a[lo].Lanes[l] != b[lo].Lanes[l] {
			d.Lane = Lane(l)
			break
		}
	}
	return d, true
}
