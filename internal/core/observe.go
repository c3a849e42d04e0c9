package core

import (
	"fmt"
	"io"

	"repro/internal/digest"
	"repro/internal/dtm"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
)

// AttachProbe attaches the observability probe to every instrumented
// layer: the protocol engine (migration, MSI coherence, and cache SRAM
// events), the fabric (packet inject/eject), every router (per-hop
// routing, VC stalls), and every pillar bus (dTDMA arbitration). A nil
// probe detaches all of them, restoring the zero-overhead path.
//
// AttachProbe is the low-level hook: it installs exactly the given probe.
// AttachTracer and AttachThermal compose on top of it — prefer those.
func (s *System) AttachProbe(p *obs.Probe) {
	s.obsProbe = p
	s.Fab.SetProbe(p)
}

// AttachTracer routes probe events into the given sink (nil detaches the
// tracer). It composes with an attached thermal pipeline: with both
// active, every event tees into the trace sink and the energy accountant.
func (s *System) AttachTracer(sink obs.Sink) {
	s.traceSink = sink
	s.refreshProbe()
}

// AttachThermal attaches the activity→power→temperature pipeline: an
// energy accountant (Table-1-calibrated per-event charging, fed by the
// same probe events the tracer sees) and a transient RC thermal grid
// stepped every interval cycles, with each core's instruction delta
// charged at its cell. Results gains the run-level Thermal report.
//
// Attach at the start of the window to track (typically right after
// ResetStats), and before AttachSampler if the sampler should carry the
// thermal columns — the tracker must tick (and so flush its window)
// before the sampler reads the window's values.
func (s *System) AttachThermal(interval uint64) *obs.ThermalTracker {
	tt := obs.NewThermalTracker(s.Top.Dim, thermal.DefaultParams(), power.TelemetryModel(), interval)
	for _, c := range s.CPUs {
		c := c
		tt.AddCPU(c.pos, func() uint64 { return c.instrs })
	}
	s.thermalT = tt
	s.refreshProbe()
	s.Engine.Register(tt)
	return tt
}

// AttachDTM closes the thermal loop: it builds a dtm.Controller from the
// config's DTM fields (DTMPolicy, TripTempC, DutyCycle), attaches the
// thermal pipeline stepping every interval cycles if one is not already
// attached, and wires the controller as the tracker's actor plus into
// every actuator path — migration targeting (veto), bank access (drowsy
// wakeups), CPU issue (duty-cycling), and, when the reroute policy is
// enabled, the fabric's pillar selection. Attach at the start of the
// window to manage (typically right after ResetStats), in place of
// AttachThermal; Results gains both the Thermal and the DTM reports.
//
// The error cases are an unparseable Cfg.DTMPolicy or Cfg.DutyCycle. An
// empty policy ("" or "none") is valid and attaches a controller that
// actuates nothing — useful for verifying the loop itself is inert (see
// TestDTMDoesNotPerturbWhenDisabled).
func (s *System) AttachDTM(interval uint64) (*dtm.Controller, error) {
	pol, err := dtm.ParsePolicy(s.Cfg.DTMPolicy)
	if err != nil {
		return nil, err
	}
	on, period, err := dtm.ParseDuty(s.Cfg.DutyCycle)
	if err != nil {
		return nil, err
	}
	if s.thermalT == nil {
		s.AttachThermal(interval)
	}
	prm := thermal.DefaultParams()
	ctl := dtm.NewController(s.Top.Dim, pol, dtm.Options{
		TripC:          s.Cfg.TripTempC,
		DutyOn:         on,
		DutyPeriod:     period,
		CellLeakW:      prm.CellPowerW,
		DrowsyLeakFrac: power.DrowsyLeakageFraction,
		WakeupCycles:   power.DrowsyWakeupCycles,
		ClockHz:        power.ClockHz,
	})
	for _, c := range s.CPUs {
		ctl.AddCPU(c.pos)
	}
	s.thermalT.SetActor(ctl)
	if pol.Has(dtm.PolicyReroute) {
		// Install the pillar bias only when the policy wants it, so the
		// other policies keep the fabric's unbiased selection path.
		s.Fab.SetPillarPenalty(ctl.PillarPenalty, ctl.NotePillarDiversion)
	}
	s.dtm = ctl
	return ctl, nil
}

// WriteThermalMap renders per-layer ASCII temperature maps of the attached
// thermal tracker's grid, marking CPU cells. It errors when no thermal
// pipeline is attached.
func (s *System) WriteThermalMap(w io.Writer) error {
	if s.thermalT == nil {
		return fmt.Errorf("core: no thermal pipeline attached (call AttachThermal first)")
	}
	return thermal.WriteHeatMap(w, s.thermalT.Grid(), s.Top.CPUs)
}

// refreshProbe rebuilds the probe from the attached tracer and thermal
// sinks (either, both teed, or detached).
func (s *System) refreshProbe() {
	var sink obs.Sink
	if s.thermalT != nil {
		sink = s.thermalT.Sink()
	}
	s.AttachProbe(obs.NewProbe(obs.Tee(s.traceSink, sink)))
}

// AttachProfile attaches the host-side phase profiler ("flight
// recorder"): from now on every Engine.Run is wall-clock-attributed
// across the loop's phases — CPU pipeline events vs protocol/cluster
// events in the engine drain (split by typed event kind), the network
// tick, the thermal and sampler tickers, and the engine's own bookkeeping
// as the residual — plus a rolling cycles/sec window series and
// allocation deltas. Results gains the Profile report.
//
// Measurement is host-side only: monotonic clock deltas folded into
// value-typed accumulators, nothing fed back into simulation state — so
// an attached run is bit-identical to a detached one (the contract is
// pinned by TestProfileDoesNotPerturb). Attach any time; idempotent
// (subsequent calls return the same recorder). Attach before Warm to
// profile the whole run, since attribution starts at attachment.
func (s *System) AttachProfile() *prof.Recorder {
	if s.hostProf != nil {
		return s.hostProf
	}
	rec := prof.NewRecorder()
	s.hostProf = rec
	s.Engine.SetProfiler(rec, eventPhase, tickerPhase)
	return rec
}

// eventPhase classifies a typed engine event for the profiler: the CPU
// pipeline kinds are the core's fetch-execute loop; everything else —
// cluster serves, migrations, replicas and the memory path — is protocol
// work.
func eventPhase(kind uint8) prof.Phase {
	switch kind {
	case evCPUStep, evCPUAccess, evCPUIfetch, evCPUData, evCPULoadMiss:
		return prof.PhaseCPU
	}
	return prof.PhaseProtocol
}

// tickerPhase classifies a registered ticker for the profiler.
func tickerPhase(t sim.Ticker) prof.Phase {
	switch t.(type) {
	case *fabric.Fabric:
		return prof.PhaseNet
	case *obs.ThermalTracker:
		return prof.PhaseThermal
	case *obs.Sampler:
		return prof.PhaseSampler
	}
	return prof.PhaseOther
}

// AttachSpans attaches a transaction span recorder: from now on every L2
// transaction carries a component ledger that tiles its whole lifetime —
// search windows, per-hop network time split into queue vs link, pillar-bus
// arbitration vs transfer, tag and bank service, DRAM — and Results gains
// the aggregate Breakdown. Transactions already in flight are not traced,
// so attach before the measurement window opens — ResetStats resets the
// recorder's aggregates along with the other statistics, which makes the
// traced set exactly the set the measured latency means cover. Unlike
// AttachProbe the recorder registers no tickers and never wakes the
// fabric; spans and chains are pooled, so steady-state recording
// allocates nothing.
func (s *System) AttachSpans() *obs.SpanRecorder {
	s.spans = obs.NewSpanRecorder()
	return s.spans
}

// StatsRegistry returns the machine's counter registry: the live Metrics
// fields and raw fabric traffic counters exposed through the stats.Set
// Names/Value interface. The registry is built once and shared — the
// sampler's per-interval deltas read it, and the serving tier snapshots
// it (stats.Set.Snapshot, called between engine runs on the simulation's
// goroutine) to publish per-job counters on /metrics. The hot paths keep
// incrementing the Metrics fields directly: Metrics.Reset assigns through
// the pointer receiver, so the registered addresses stay live across
// ResetStats.
func (s *System) StatsRegistry() *stats.Set {
	if s.statsReg != nil {
		return s.statsReg
	}
	reg := stats.NewSet()
	reg.Register("l2_accesses", &s.M.L2Accesses)
	reg.Register("l2_hits", &s.M.L2Hits)
	reg.Register("l2_misses", &s.M.L2Misses)
	reg.Register("migrations", &s.M.Migrations)
	reg.Register("invalidations", &s.M.Invalidations)
	reg.Register("evictions", &s.M.Evictions)
	reg.Register("mem_reads", &s.M.MemReads)
	reg.Register("mem_writes", &s.M.MemWrites)
	reg.Register("probes_sent", &s.M.ProbesSent)
	// Raw traffic totals: flit_hops is a live fabric counter; bus_flits
	// exists only as a sum over the pillar buses, so it registers as a
	// derived-counter closure.
	reg.Register("flit_hops", &s.Fab.FlitHops)
	reg.RegisterFunc("bus_flits", s.Fab.BusFlits)
	s.statsReg = reg
	return reg
}

// AttachSampler registers a periodic metrics sampler with the engine:
// every interval cycles it appends one row of interval metrics — counter
// deltas from a stats.Set registry backed by the live Metrics fields, the
// L2 hit-latency mean and P95 over the interval, mesh router utilization,
// and per-pillar bus occupancy. The returned sampler keeps accumulating
// until the simulation stops; read it with Series().
//
// Column semantics:
//
//	l2_accesses, l2_hits, l2_misses, migrations, invalidations,
//	evictions, mem_reads, mem_writes, probes_sent
//	    — events in the interval (deltas of the cumulative counters, so
//	      "migrations" is the migration rate per interval)
//	hit_lat_mean, hit_lat_p95
//	    — over the hits completing inside the interval (0 with no hits)
//	router_util
//	    — flits forwarded per router per cycle, averaged over the mesh
//	bus<N>_occ
//	    — fraction of the interval's cycles pillar bus N carried a flit
func (s *System) AttachSampler(interval uint64) *obs.Sampler {
	sm := obs.NewSampler(interval)
	sm.AddCounterSet(s.StatsRegistry())

	// L2 hit latency over the interval: deltas of the cumulative
	// accumulator. ResetStats (which zeroes the accumulator) restarts the
	// window instead of producing a negative delta.
	var lastSum, lastCount uint64
	sm.AddGauge("hit_lat_mean", func(uint64) float64 {
		sum, count := s.M.HitLatency.Sum(), s.M.HitLatency.Count()
		if count < lastCount {
			lastSum, lastCount = 0, 0
		}
		dSum, dCount := sum-lastSum, count-lastCount
		lastSum, lastCount = sum, count
		if dCount == 0 {
			return 0
		}
		return float64(dSum) / float64(dCount)
	})

	// Interval P95 from the hit-latency histogram's bucket deltas. The
	// open-ended last bucket reports the cumulative observed maximum (the
	// per-interval maximum is not tracked).
	lastBuckets := make([]uint64, s.M.HitHist.NumBuckets())
	var lastHistTotal uint64
	sm.AddGauge("hit_lat_p95", func(uint64) float64 {
		h := s.M.HitHist
		nb := h.NumBuckets()
		if nb != len(lastBuckets) || h.Total() < lastHistTotal {
			// The histogram was replaced by ResetStats; restart the window.
			lastBuckets = make([]uint64, nb)
		}
		lastHistTotal = h.Total()
		deltas := make([]uint64, nb)
		for i := 0; i < nb; i++ {
			c := h.Bucket(i)
			deltas[i] = c - lastBuckets[i]
			lastBuckets[i] = c
		}
		return float64(stats.PercentileFromBuckets(deltas, h.Width(), h.Max(), 95))
	})

	// Mesh utilization: flits forwarded per router per cycle.
	nodes := float64(s.Top.Dim.Nodes())
	var lastFwd uint64
	sm.AddGauge("router_util", func(uint64) float64 {
		cur := s.Fab.ForwardedFlits()
		d := cur - lastFwd
		lastFwd = cur
		return float64(d) / (nodes * float64(interval))
	})

	// Per-pillar bus occupancy: busy cycles / interval cycles.
	for i, b := range s.Fab.Buses() {
		b := b
		var lastBusy uint64
		sm.AddGauge(fmt.Sprintf("bus%d_occ", i), func(uint64) float64 {
			d := b.BusyCycles - lastBusy
			lastBusy = b.BusyCycles
			return float64(d) / float64(interval)
		})
	}

	// Thermal telemetry columns, present only when the pipeline is
	// attached (AttachThermal must precede AttachSampler so the tracker
	// ticks — and flushes its window — before the sampler reads it):
	// per-component window power, per-layer peak/mean temperature, and
	// the hotspot coordinates.
	if tt := s.thermalT; tt != nil {
		comps := []struct {
			name string
			c    obs.PowerComponent
		}{
			{"p_cpu_w", obs.PowCPU},
			{"p_net_w", obs.PowNetwork},
			{"p_bus_w", obs.PowBus},
			{"p_tag_w", obs.PowTags},
			{"p_bank_w", obs.PowBanks},
			{"p_mig_w", obs.PowMigration},
		}
		sm.AddGauge("power_w", func(uint64) float64 {
			w := tt.WindowPowerW()
			sum := 0.0
			for _, v := range w {
				sum += v
			}
			return sum
		})
		for _, cc := range comps {
			cc := cc
			sm.AddGauge(cc.name, func(uint64) float64 { return tt.WindowPowerW()[cc.c] })
		}
		for l := 0; l < s.Top.Dim.Layers; l++ {
			l := l
			sm.AddGauge(fmt.Sprintf("t_peak_l%d", l), func(uint64) float64 { return tt.LayerProfileNow(l).PeakC })
			sm.AddGauge(fmt.Sprintf("t_mean_l%d", l), func(uint64) float64 { return tt.LayerProfileNow(l).AvgC })
		}
		sm.AddGauge("t_hot_x", func(uint64) float64 { c, _ := tt.Hotspot(); return float64(c.X) })
		sm.AddGauge("t_hot_y", func(uint64) float64 { c, _ := tt.Hotspot(); return float64(c.Y) })
		sm.AddGauge("t_hot_layer", func(uint64) float64 { c, _ := tt.Hotspot(); return float64(c.Layer) })
		sm.AddGauge("t_hot_c", func(uint64) float64 { _, t := tt.Hotspot(); return t })
	}

	// Digest telemetry columns, present only when a digest recorder is
	// attached (AttachDigest must precede AttachSampler so the recorder
	// ticks before the sampler reads it): the cumulative overall digest
	// and the per-subsystem chains, truncated to float64's 53-bit
	// mantissa (a diagnostic fingerprint for eyeballing when two sampled
	// runs diverge, not the attestation value — Results.Digests carries
	// the full 64 bits).
	if dr := s.digestRec; dr != nil {
		const mant53 = 1<<53 - 1
		sm.AddGauge("digest", func(uint64) float64 { return float64(dr.Digest() & mant53) })
		for l := 0; l < digest.NumLanes; l++ {
			l := digest.Lane(l)
			sm.AddGauge("digest_"+l.String(), func(uint64) float64 { return float64(dr.LaneValue(l) & mant53) })
		}
	}

	s.Engine.Register(sm)
	return sm
}
