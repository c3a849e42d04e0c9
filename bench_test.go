// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark family per table/figure), plus ablations of the design
// choices called out in DESIGN.md. Each benchmark reports the figure's
// metric through b.ReportMetric, so `go test -bench=. -benchmem` prints the
// series the paper plots; `go run ./cmd/experiments -all` prints the same
// data as formatted tables.
package nim_test

import (
	"testing"

	nim "repro"
	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/trace"
)

// benchOpt keeps individual benchmarks quick; cmd/experiments uses larger
// windows for smoother numbers.
func benchOpt() nim.Options {
	return nim.Options{WarmCycles: 30_000, MeasureCycles: 80_000, Seed: 1}
}

// reportRun attaches the three paper metrics to a benchmark result.
func reportRun(b *testing.B, r nim.Results) {
	b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	b.ReportMetric(r.IPC, "IPC")
	b.ReportMetric(float64(r.Migrations), "migrations")
}

// --- Table 1: dTDMA component characterization -------------------------

func BenchmarkTable1Components(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		for _, c := range power.Table1() {
			total += c.PowerMW + c.AreaMM2
		}
	}
	b.ReportMetric(power.RouterPowerMW/power.ArbiterPowerMW, "router-vs-arbiter-power-x")
	_ = total
}

// --- Table 2: pillar wiring area vs via pitch --------------------------

func BenchmarkTable2PillarArea(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		for _, pitch := range power.Table2Pitches {
			area += power.PillarAreaUM2(pitch)
		}
	}
	b.ReportMetric(power.PillarAreaUM2(5), "um2@5um")
	b.ReportMetric(100*power.PillarAreaOverheadVsRouter(5), "overhead-pct@5um")
	_ = area
}

// --- Table 3: thermal profiles of CPU placements -----------------------

func BenchmarkTable3Thermal(b *testing.B) {
	var rows []nim.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = nim.ThermalTable3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "3D-2L, CPU stacking" {
			b.ReportMetric(r.Profile.PeakC, "stacking-peak-C")
		}
		if r.Name == "3D-2L, optimal offset" {
			b.ReportMetric(r.Profile.PeakC, "offset-peak-C")
		}
	}
}

// --- Table 5: workload generation throughput ---------------------------

func BenchmarkTable5WorkloadGen(b *testing.B) {
	prof, _ := trace.ProfileByName("mgrid", 8)
	g := trace.NewGenerator(prof, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// --- Figures 13/14/15: the four schemes --------------------------------

func benchmarkScheme(b *testing.B, s nim.Scheme, bench string) {
	var r nim.Results
	for i := 0; i < b.N; i++ {
		var err error
		r, err = nim.RunScheme(s, bench, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRun(b, r)
}

func BenchmarkFig13Fig15Schemes(b *testing.B) {
	for _, bench := range []string{"mgrid", "art"} {
		for _, s := range nim.Schemes() {
			s, bench := s, bench
			b.Run(bench+"/"+s.String(), func(b *testing.B) {
				benchmarkScheme(b, s, bench)
			})
		}
	}
}

func BenchmarkFig14Migrations(b *testing.B) {
	// Migration counts of the three migrating schemes on swim, the series
	// Figure 14 normalizes against CMP-DNUCA-2D.
	for _, s := range []nim.Scheme{nim.CMPDNUCA, nim.CMPDNUCA2D, nim.CMPDNUCA3D} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			var r nim.Results
			for i := 0; i < b.N; i++ {
				var err error
				r, err = nim.RunScheme(s, "swim", benchOpt())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Migrations), "migrations")
		})
	}
}

// --- Figure 16: L2 capacity scaling -------------------------------------

func BenchmarkFig16CacheSize(b *testing.B) {
	for _, mb := range []int{16, 32, 64} {
		for _, s := range []nim.Scheme{nim.CMPDNUCA2D, nim.CMPDNUCA3D} {
			mb, s := mb, s
			b.Run(s.String()+"/"+sizeName(mb), func(b *testing.B) {
				var r nim.Results
				for i := 0; i < b.N; i++ {
					var err error
					r, err = nim.RunWithL2Size(s, "mgrid", mb, benchOpt())
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
			})
		}
	}
}

func sizeName(mb int) string {
	switch mb {
	case 16:
		return "16MB"
	case 32:
		return "32MB"
	case 64:
		return "64MB"
	}
	return "?"
}

// --- Figure 17: number of pillars ---------------------------------------

func BenchmarkFig17Pillars(b *testing.B) {
	for _, p := range []int{8, 4, 2} {
		p := p
		b.Run(pillarName(p), func(b *testing.B) {
			var r nim.Results
			for i := 0; i < b.N; i++ {
				var err error
				r, err = nim.RunWithPillars("swim", p, benchOpt())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		})
	}
}

func pillarName(p int) string {
	switch p {
	case 8:
		return "8pillars"
	case 4:
		return "4pillars"
	case 2:
		return "2pillars"
	}
	return "?"
}

// --- Figure 18: number of layers ----------------------------------------

func BenchmarkFig18Layers(b *testing.B) {
	for _, l := range []int{2, 4} {
		l := l
		b.Run(layerName(l), func(b *testing.B) {
			var r nim.Results
			for i := 0; i < b.N; i++ {
				var err error
				r, err = nim.RunWithLayers("mgrid", l, benchOpt())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		})
	}
}

func layerName(l int) string {
	if l == 2 {
		return "2layers"
	}
	return "4layers"
}

// --- Ablations of DESIGN.md's called-out choices ------------------------

func BenchmarkAblationMigrationThreshold(b *testing.B) {
	for _, th := range []int{1, 2, 4, 8} {
		th := th
		b.Run(thName(th), func(b *testing.B) {
			var rs []nim.Results
			for i := 0; i < b.N; i++ {
				var err error
				rs, err = nim.MigrationThresholdSweep("swim", []int{th}, benchOpt())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rs[0].AvgL2HitLatency, "L2hit-cycles")
			b.ReportMetric(float64(rs[0].Migrations), "migrations")
		})
	}
}

func thName(th int) string {
	return "threshold" + string(rune('0'+th))
}

func BenchmarkAblationClusterSkip(b *testing.B) {
	b.Run("skip-on", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			r, _, err = runSkip(true)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	})
	b.Run("skip-off", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			_, r, err = runSkip(false)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	})
}

func runSkip(on bool) (withSkip, withoutSkip nim.Results, err error) {
	if on {
		withSkip, err = nim.RunScheme(nim.CMPDNUCA3D, "swim", benchOpt())
		return
	}
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	cfg.SkipCPUClusters = false
	bench, _ := nim.BenchmarkByName("swim", cfg.NumCPUs)
	sim, e := nim.NewSimulation(cfg, bench, 1)
	if e != nil {
		err = e
		return
	}
	opt := benchOpt()
	sim.Warm()
	sim.Start()
	sim.Run(opt.WarmCycles)
	sim.ResetStats()
	sim.Run(opt.MeasureCycles)
	withoutSkip = sim.Results()
	return
}

func BenchmarkAblationStackedCPUs(b *testing.B) {
	// Network-performance counterpart of Table 3's thermal argument:
	// stacking CPUs on shared pillar columns congests the pillars.
	for _, stacked := range []bool{false, true} {
		stacked := stacked
		name := "offset"
		if stacked {
			name = "stacked"
		}
		b.Run(name, func(b *testing.B) {
			var r nim.Results
			for i := 0; i < b.N; i++ {
				cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
				cfg.StackCPUs = stacked
				bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
				sim, err := nim.NewSimulation(cfg, bench, 1)
				if err != nil {
					b.Fatal(err)
				}
				opt := benchOpt()
				sim.Warm()
				sim.Start()
				sim.Run(opt.WarmCycles)
				sim.ResetStats()
				sim.Run(opt.MeasureCycles)
				r = sim.Results()
			}
			b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		})
	}
}

func BenchmarkAblationVerticalInterconnect(b *testing.B) {
	// The paper's Section 3.1 design decision: dTDMA bus pillars versus
	// 7-port 3D routers for the vertical direction, on a 4-layer chip
	// where the single-hop advantage is visible.
	b.Run("dtdma-bus", func(b *testing.B) {
		var bus nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			bus, _, err = nim.VerticalAblation("mgrid", 4, benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(bus.AvgL2HitLatency, "L2hit-cycles")
	})
	b.Run("router-7port", func(b *testing.B) {
		var router nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			_, router, err = nim.VerticalAblation("mgrid", 4, benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(router.AvgL2HitLatency, "L2hit-cycles")
	})
}

func BenchmarkAblationRouterPipeline(b *testing.B) {
	// The paper's Section 3.2 choice of single-stage routers over the
	// basic four-stage pipeline.
	b.Run("single-stage", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			r, _, err = nim.RouterPipelineAblation("swim", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	})
	b.Run("four-stage", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			_, r, err = nim.RouterPipelineAblation("swim", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	})
}

func BenchmarkAblationSearchPolicy(b *testing.B) {
	// Two-step search (Section 4.2.1) vs single-step broadcast.
	b.Run("two-step", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			r, _, err = nim.SearchPolicyAblation("art", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		b.ReportMetric(float64(r.ProbesSent), "probes")
	})
	b.Run("broadcast", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			_, r, err = nim.SearchPolicyAblation("art", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		b.ReportMetric(float64(r.ProbesSent), "probes")
	})
}

func BenchmarkAblationVictimReplication(b *testing.B) {
	// The replication-vs-migration management alternative of Section 2.1.
	b.Run("snuca3d-plain", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			r, _, err = nim.ReplicationAblation("equake", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	})
	b.Run("snuca3d-vr", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			_, r, err = nim.ReplicationAblation("equake", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		b.ReportMetric(float64(r.ReplicaHits), "replica-hits")
	})
}

func BenchmarkAblationTagPorts(b *testing.B) {
	// Idealized vs single-ported cluster tag arrays.
	b.Run("unlimited", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			r, _, err = nim.TagPortAblation("mgrid", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	})
	b.Run("single-port", func(b *testing.B) {
		var r nim.Results
		for i := 0; i < b.N; i++ {
			var err error
			_, r, err = nim.TagPortAblation("mgrid", benchOpt())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	})
}

// --- Microbenchmarks: simulator throughput ------------------------------

// BenchmarkTracingOverhead quantifies the observability layer's cost on a
// Figure 13-style run. The "disabled" case is the default configuration —
// no probe attached, every instrumentation site a nil check — and is the
// one that must stay within 2% of the pre-instrumentation simulator. The
// "enabled" case attaches a ring sink and shows the full-tracing price;
// "spans" attaches the pooled transaction span recorder instead.
func BenchmarkTracingOverhead(b *testing.B) {
	run := func(b *testing.B, attach func(*nim.Simulation)) {
		cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
		bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
		sim, err := nim.NewSimulation(cfg, bench, 1)
		if err != nil {
			b.Fatal(err)
		}
		sim.Warm()
		sim.Start()
		if attach != nil {
			attach(sim)
		}
		b.ResetTimer()
		sim.Run(uint64(b.N))
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		run(b, func(s *nim.Simulation) { s.AttachTracer(nim.NewTraceRing(1 << 20)) })
	})
	b.Run("spans", func(b *testing.B) {
		run(b, func(s *nim.Simulation) { s.AttachSpans() })
	})
	b.Run("thermal", func(b *testing.B) {
		run(b, func(s *nim.Simulation) { s.AttachThermal(1_000) })
	})
	// The host profiler's full price: one clock read per event plus two
	// per ticker. The disabled case above doubles as its zero-cost gate —
	// an unattached run's only new work is a nil check in Engine.Step.
	b.Run("profile", func(b *testing.B) {
		run(b, func(s *nim.Simulation) { s.AttachProfile() })
	})
}

// BenchmarkSimulatorThroughput reports simulated cycles per wall-clock
// second. The "serial" case is the historical default 3D system and the
// regression gate's anchor (scripts/bench.sh holds it within 10% of the
// committed baseline). The "stacked" case is the four-layer stacked-CPU
// machine, where the network tick dominates host time.
func BenchmarkSimulatorThroughput(b *testing.B) {
	run := func(b *testing.B, stacked bool) {
		cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
		if stacked {
			cfg.Layers = 4
			cfg.StackCPUs = true
		}
		bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
		sim, err := nim.NewSimulation(cfg, bench, 1)
		if err != nil {
			b.Fatal(err)
		}
		sim.Warm()
		sim.Start()
		b.ResetTimer()
		sim.Run(uint64(b.N))
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
	}
	b.Run("serial", func(b *testing.B) { run(b, false) })
	b.Run("stacked", func(b *testing.B) { run(b, true) })
}

func BenchmarkThermalSolver(b *testing.B) {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	top, err := config.NewTopology(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prm := thermal.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		thermal.Simulate(top.Dim, top.CPUs, prm)
	}
}

// BenchmarkDTMOverhead quantifies the management loop's cost on the
// stacked (hottest) machine. The "detached" case is the default
// configuration — no controller, every actuator hook a nil check — and
// must stay within the simulator-throughput regression gate. "disabled"
// attaches a controller with no policy bits (the loop's fixed cost:
// hysteresis scan per thermal step); "all" enables every actuator, whose
// price includes the work the policies cause (stall events, diverted
// packets), not just the hook overhead.
func BenchmarkDTMOverhead(b *testing.B) {
	run := func(b *testing.B, policy string, attach bool) {
		cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
		cfg.StackCPUs = true
		cfg.DTMPolicy = policy
		bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
		sim, err := nim.NewSimulation(cfg, bench, 1)
		if err != nil {
			b.Fatal(err)
		}
		sim.Warm()
		sim.Start()
		if attach {
			if _, err := sim.AttachDTM(1_000); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		sim.Run(uint64(b.N))
	}
	b.Run("detached", func(b *testing.B) { run(b, "", false) })
	b.Run("disabled", func(b *testing.B) { run(b, "none", true) })
	b.Run("all", func(b *testing.B) { run(b, "all", true) })
}
