package prof

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// HostInfo is the provenance of a measurement: the host shape that
// produced it. Throughput numbers are meaningless without it: a figure
// measured on one CPU says little about a many-core host.
type HostInfo struct {
	GOOS       string
	GOARCH     string
	GoVersion  string
	NumCPU     int
	GOMAXPROCS int
}

// PhaseStat is one phase's aggregate in a Report.
type PhaseStat struct {
	Phase   string
	Count   uint64
	Seconds float64
	// Share is this phase's fraction of the total profiled loop time
	// (all shares sum to 1, PhaseEngine absorbing the residual).
	Share  float64
	MeanNs float64
	P95Ns  int64
	MaxNs  int64
}

// WindowStat is one Engine.Run's throughput sample in the rolling series.
type WindowStat struct {
	StartSeconds float64
	Seconds      float64
	Cycles       uint64
	CyclesPerSec float64
}

// MemDelta is the process allocation delta across the profiled span
// (recorder creation to Report), from runtime.MemStats. It is
// process-wide — concurrent jobs in a serving daemon share it — but in
// the single-run CLI it bounds the simulation's own allocation rate.
type MemDelta struct {
	AllocBytes   uint64
	Mallocs      uint64
	NumGC        uint32
	PauseTotalNs uint64
	HeapAllocB   uint64
}

// Report is the full flight-recorder readout, attached to Results as
// Results.Profile. All figures are host-side wall-clock; nothing here
// describes the simulated chip.
type Report struct {
	Host HostInfo

	// WallSeconds is total profiled loop time (the sum of all
	// Engine.Run windows); Cycles the simulated cycles they advanced.
	WallSeconds  float64
	Cycles       uint64
	Runs         uint64
	CyclesPerSec float64

	Phases  []PhaseStat
	Windows []WindowStat `json:",omitempty"`
	Mem     MemDelta
}

// Report reads out the recorder. Call between engine runs on the
// simulation goroutine (the same discipline as stats.Set.Snapshot).
func (r *Recorder) Report() *Report {
	rep := &Report{
		Host:        r.host,
		WallSeconds: float64(r.runNs) / 1e9,
		Cycles:      r.cycles,
		Runs:        r.runs,
	}
	if r.runNs > 0 {
		rep.CyclesPerSec = float64(r.cycles) / rep.WallSeconds
	}

	var attributed int64
	for p := 0; p < NumPhases; p++ {
		attributed += r.phases[p].ns
	}
	residual := r.runNs - attributed
	if residual < 0 {
		// Clock-granularity jitter can push the timed sections past the
		// enclosing window by a hair; clamp rather than report a
		// negative engine share.
		residual = 0
	}
	total := attributed + residual
	for p := 0; p < NumPhases; p++ {
		a := &r.phases[p]
		ns, count := a.ns, a.count
		var p95, max int64
		var mean float64
		if Phase(p) == PhaseEngine {
			// Attributed by subtraction: everything inside the run
			// windows that no timed section claimed. Count is the
			// cycle count; no per-sample distribution exists.
			ns += residual
			count += r.cycles
		}
		if count > 0 {
			mean = float64(ns) / float64(count)
			p95 = a.percentile(95)
			max = a.max
		}
		if count == 0 && ns == 0 {
			continue
		}
		st := PhaseStat{
			Phase:   Phase(p).String(),
			Count:   count,
			Seconds: float64(ns) / 1e9,
			MeanNs:  mean,
			P95Ns:   p95,
			MaxNs:   max,
		}
		if total > 0 {
			st.Share = float64(ns) / float64(total)
		}
		rep.Phases = append(rep.Phases, st)
	}

	for _, w := range r.windows {
		ws := WindowStat{
			StartSeconds: float64(w.startNs) / 1e9,
			Seconds:      float64(w.durNs) / 1e9,
			Cycles:       w.cycles,
		}
		if w.durNs > 0 {
			ws.CyclesPerSec = float64(w.cycles) / ws.Seconds
		}
		rep.Windows = append(rep.Windows, ws)
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.Mem = MemDelta{
		AllocBytes:   m.TotalAlloc - r.m0.TotalAlloc,
		Mallocs:      m.Mallocs - r.m0.Mallocs,
		NumGC:        m.NumGC - r.m0.NumGC,
		PauseTotalNs: m.PauseTotalNs - r.m0.PauseTotalNs,
		HeapAllocB:   m.HeapAlloc,
	}
	return rep
}

// Snapshot is the cheap live readout for serving-tier gauges: no
// MemStats read, no histogram walks, no window copies.
type Snapshot struct {
	WallSeconds  float64
	Cycles       uint64
	CyclesPerSec float64
	PhaseSeconds [NumPhases]float64
}

// Snap returns the live snapshot. Same calling discipline as Report.
func (r *Recorder) Snap() Snapshot {
	s := Snapshot{WallSeconds: float64(r.runNs) / 1e9, Cycles: r.cycles}
	if r.runNs > 0 {
		s.CyclesPerSec = float64(r.cycles) / s.WallSeconds
	}
	var attributed int64
	for p := 0; p < NumPhases; p++ {
		attributed += r.phases[p].ns
		s.PhaseSeconds[p] = float64(r.phases[p].ns) / 1e9
	}
	if residual := r.runNs - attributed; residual > 0 {
		s.PhaseSeconds[PhaseEngine] += float64(residual) / 1e9
	}
	return s
}

// fmtDur renders a nanosecond count with three significant figures and
// an adaptive unit, kept narrow for table alignment.
func fmtDur(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// fmtCount renders a sample count compactly (2.1M, 30.5k).
func fmtCount(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// WriteTable renders the report as the aligned text block behind
// `nimsim -profile`: provenance line, throughput line, the per-phase
// share table, and the allocation delta.
func (rep *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "host profile: %s/%s %s, %d CPUs (GOMAXPROCS %d)\n",
		rep.Host.GOOS, rep.Host.GOARCH, rep.Host.GoVersion,
		rep.Host.NumCPU, rep.Host.GOMAXPROCS)
	fmt.Fprintf(w, "  loop: %s wall, %d cycles over %d runs = %.0f cycles/sec\n",
		fmtDur(rep.WallSeconds*1e9), rep.Cycles, rep.Runs, rep.CyclesPerSec)
	fmt.Fprintf(w, "  %-12s %7s %10s %9s %10s %10s %10s\n",
		"phase", "share", "time", "count", "mean", "p95", "max")
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  %-12s %6.1f%% %10s %9s %10s %10s %10s\n",
			p.Phase, p.Share*100, fmtDur(p.Seconds*1e9), fmtCount(p.Count),
			fmtDur(p.MeanNs), fmtDur(float64(p.P95Ns)), fmtDur(float64(p.MaxNs)))
	}
	fmt.Fprintf(w, "  mem: +%s allocated (%s mallocs), %d GCs (%s pause), heap %s\n",
		fmtBytes(rep.Mem.AllocBytes), fmtCount(rep.Mem.Mallocs),
		rep.Mem.NumGC, fmtDur(float64(rep.Mem.PauseTotalNs)),
		fmtBytes(rep.Mem.HeapAllocB))
}

// fmtBytes renders a byte count with an adaptive binary unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
