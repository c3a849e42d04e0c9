package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	nim "repro"
)

// singleWorkload is one long serial simulation: NewSimulation → Warm →
// Start → Run(settle) → ResetStats → Run(measure).
type singleWorkload struct {
	scheme  nim.Scheme
	layers  int
	stack   bool
	bench   string
	settle  uint64
	measure uint64
	slice   uint64 // Run(measure) is issued as measure/slice timed calls
}

func (w singleWorkload) config() nim.Config {
	cfg := nim.DefaultConfig(w.scheme)
	cfg.Layers = w.layers
	cfg.StackCPUs = w.stack
	return cfg
}

// singles are the two single-run workloads. The windows are fixed (not
// scaled by --seconds) so that a seed fully determines the Results that
// golden/ pins; --seconds decides how many rounds run.
var singles = map[string]singleWorkload{
	// The BenchmarkSimulatorThroughput/stacked machine on the profile with
	// the highest L2 transaction rate: the fabric dominates.
	"stacked4-mgrid": {nim.CMPDNUCA3D, 4, true, "mgrid", 100_000, 600_000, 50_000},
	// One layer, so no pillar buses, on the profile with the largest
	// instruction-fetch share and the lowest L2 rate: CPU + L1 dominate.
	// Run by hand only; README.md says why BENCHMARK.json leaves it out.
	"flat2d-fma3d": {nim.CMPDNUCA2D, 1, false, "fma3d", 250_000, 2_000_000, 200_000},
}

// Between measure slices, a plain round re-reads the live window
// (Results + JSON encode) hitReads times, each read timed on its own, for
// the hit-latency figures. The host's speed swings at sub-second scale, so
// the reads are spread over the whole run rather than taken in one burst;
// single reads of a few µs rarely share a host stall, so their p99 is the
// operation's own tail rather than the host's.
const hitReads = 400

//go:embed golden/*.json
var goldenFS embed.FS

// golden is a pinned default-seed result: the stripped Results and their
// SHA-256.
type golden struct {
	Seed    uint64          `json:"seed"`
	Settle  uint64          `json:"settle"`
	Measure uint64          `json:"measure"`
	SHA256  string          `json:"sha256"`
	Results json.RawMessage `json:"results"`
}

func loadGolden(name string) (*golden, error) {
	b, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("no pinned results for %s: %w", name, err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", name, err)
	}
	return &g, nil
}

func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// diffFields names the top-level Results fields whose values differ.
func diffFields(want, got []byte) string {
	var a, b map[string]any
	if json.Unmarshal(want, &a) != nil || json.Unmarshal(got, &b) != nil {
		return "results do not parse"
	}
	var out []string
	for k, v := range a {
		if !reflect.DeepEqual(v, b[k]) {
			out = append(out, fmt.Sprintf("%s: want %v got %v", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: unexpected %v", k, v))
		}
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// roundOut is one fresh simulation's timings and outputs.
type roundOut struct {
	newD, warmD, settleD, setupD, totalD time.Duration
	res                                  nim.Results // Profile and Digests stripped
	resJSON                              []byte
	prof                                 *nim.ProfileReport
	allocBytes                           uint64
	gcs                                  uint32
	hitsUS                               []float64
	sliceRates                           []float64 // cycles/s of each measure slice
}

// round builds, settles and measures one fresh simulation. A traced round
// attaches the host profiler for the measurement window and reads
// runtime.MemStats around it; a plain round instead times Results
// re-reads between measure slices (reRead), which the measure and miss
// timings exclude.
func round(w singleWorkload, seed uint64, traced bool, tr *tracer, parent int, o *outcome) (roundOut, error) {
	var r roundOut
	cfg := w.config()
	bench, ok := nim.BenchmarkByName(w.bench, cfg.NumCPUs)
	if !ok {
		return r, fmt.Errorf("unknown benchmark %q", w.bench)
	}
	t0 := time.Now()
	sim, err := nim.NewSimulation(cfg, bench, seed)
	if err != nil {
		return r, err
	}
	defer sim.Close()
	t1 := time.Now()
	sim.Warm()
	t2 := time.Now()
	sim.Start()
	sim.Run(w.settle)
	t3 := time.Now()
	sim.ResetStats()
	t4 := time.Now()
	tr.add("nim.NewSimulation", parent, 0, t0, t1)
	tr.add("Simulation.Warm", parent, 0, t1, t2)
	tr.add("Simulation.Start+Run(settle)", parent, 0, t2, t3)
	tr.add("Simulation.ResetStats", parent, 0, t3, t4)
	r.newD, r.warmD, r.settleD, r.setupD = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t0)

	var ms0, ms1 runtime.MemStats
	if traced {
		sim.AttachProfile()
		runtime.ReadMemStats(&ms0)
	}
	t5 := time.Now()
	// Timing the window in slices lets the rate be a median that a burst
	// of host interference cannot move; sliced Run calls are
	// cycle-identical to one call, which the pinned Results check.
	var hitD time.Duration
	prev := t5
	for done := uint64(0); done < w.measure; done += w.slice {
		sim.Run(w.slice)
		now := time.Now()
		r.sliceRates = append(r.sliceRates, float64(w.slice)/now.Sub(prev).Seconds())
		if !traced {
			r.hitsUS = append(r.hitsUS, reRead(sim, o)...)
		}
		prev = time.Now()
		hitD += prev.Sub(now)
	}
	t6 := time.Now()
	if traced {
		runtime.ReadMemStats(&ms1)
		r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		r.gcs = ms1.NumGC - ms0.NumGC
	}
	res := sim.Results()
	r.prof = res.Profile
	res.Profile, res.Digests = nil, nil
	if r.resJSON, err = json.Marshal(res); err != nil {
		return r, err
	}
	t7 := time.Now()
	tr.add("Simulation.Run(measure)", parent, 0, t5, t6)
	tr.add("Simulation.Results", parent, 0, t6, t7)
	r.res, r.totalD = res, t7.Sub(t0)-hitD

	o.attempted++
	if err := sim.CheckInvariants(); err != nil {
		o.fail("CheckInvariants: %v", err)
	}
	return r, nil
}

// reRead times hitReads Results reads of the live window; every read
// between two Run calls must return the same bytes.
func reRead(sim *nim.Simulation, o *outcome) []float64 {
	want, err := json.Marshal(sim.Results())
	if err != nil {
		o.attempted++
		o.fail("encoding Results: %v", err)
		return nil
	}
	out := make([]float64, 0, hitReads)
	for i := 0; i < hitReads; i++ {
		t := time.Now()
		b, err := json.Marshal(sim.Results())
		d := time.Since(t)
		o.attempted++
		if err != nil || !bytes.Equal(b, want) {
			o.fail("two Results reads with no Run between them returned different bytes")
			continue
		}
		out = append(out, float64(d.Nanoseconds())/1e3)
	}
	return out
}

func runSingle(opt options, w singleWorkload, tr *tracer, pin bool) (outcome, error) {
	var o outcome
	seed := splitmix64(opt.seed)
	var pinned *golden
	if opt.seed == defaultSeed && !pin {
		g, err := loadGolden(opt.workload)
		if err != nil {
			return o, err
		}
		if g.Settle != w.settle || g.Measure != w.measure {
			return o, fmt.Errorf("golden/%s.json pins windows %d/%d, workload runs %d/%d; re-pin",
				opt.workload, g.Settle, g.Measure, w.settle, w.measure)
		}
		pinned = g
	}

	const minPlain = 3
	budget := time.Duration(opt.seconds) * time.Second
	start := time.Now()
	var plain, traced []roundOut
	var first []byte
	for i := 0; ; i++ {
		isTraced := opt.trace && i%2 == 1
		runtime.GC()
		name := "round"
		if isTraced {
			name = "round (profiled)"
		}
		parent := tr.reserve(name, 0, 0)
		r, err := round(w, seed, isTraced, tr, parent, &o)
		tr.close(parent, time.Now())
		if err != nil {
			return o, err
		}
		if first == nil {
			first = r.resJSON
		} else if !bytes.Equal(first, r.resJSON) {
			o.fail("round %d Results differ from round 0: %s", i, diffFields(first, r.resJSON))
		}
		if pinned != nil && hashHex(r.resJSON) != pinned.SHA256 {
			o.fail("round %d Results differ from the pinned default-seed Results: %s", i, diffFields(pinned.Results, r.resJSON))
		}
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		// Stop once another round of the mean length would overrun the
		// budget, so a run lasts about --seconds.
		elapsed := time.Since(start)
		if len(plain) >= minPlain && (!opt.trace || len(traced) >= 2) && elapsed+elapsed/time.Duration(i+1) > budget {
			break
		}
	}
	if pin {
		g := golden{Seed: opt.seed, Settle: w.settle, Measure: w.measure, SHA256: hashHex(first), Results: first}
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return o, err
		}
		if err := os.WriteFile("nimbench/golden/"+opt.workload+".json", append(b, '\n'), 0o644); err != nil {
			return o, err
		}
	}

	rate := func(rs []roundOut) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.sliceRates...)
		}
		return median(xs)
	}
	res := plain[0].res
	n := len(plain)
	o.notes = map[string]any{"rounds": n, "traced_rounds": len(traced), "settle_cycles": w.settle,
		"measure_cycles": w.measure, "results_sha256": hashHex(first)}
	o.set("sim_cycles_per_s", "cycles/s", rate(plain), n*len(plain[0].sliceRates))
	o.set("setup_s", "s", medianOf(plain, func(r roundOut) float64 { return r.setupD.Seconds() }), n)
	o.set("ipc", "instr/cycle", res.IPC, n)
	o.set("l2_hit_latency_cycles", "cycles", res.AvgL2HitLatency, n)
	var hits []float64
	for _, r := range plain {
		hits = append(hits, r.hitsUS...)
	}
	o.set("hit_latency_p50_us", "us", quantile(hits, 0.50), len(hits))
	o.set("hit_latency_p99_us", "us", quantile(hits, 0.99), len(hits))
	totals := make([]float64, n)
	for i, r := range plain {
		totals[i] = float64(r.totalD.Nanoseconds()) / 1e6
	}
	o.set("miss_latency_p50_ms", "ms", quantile(totals, 0.50), n)
	o.set("miss_latency_p90_ms", "ms", quantile(totals, 0.90), n)

	if opt.trace {
		singleLayers(&o, w, traced, rate(plain), rate(traced))
		if err := serveProbe(&o, w, seed, tr); err != nil {
			return o, err
		}
	}
	return o, nil
}

func medianOf(rs []roundOut, f func(roundOut) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// phaseSum reads the named profiler phases, tolerating absent ones (a
// phase that never ran, or one a later version removes).
func phaseSum(p *nim.ProfileReport, names ...string) (ns float64, count uint64) {
	if p == nil {
		return 0, 0
	}
	for _, ph := range p.Phases {
		for _, n := range names {
			if ph.Phase == n {
				ns += ph.Seconds * 1e9
				count += ph.Count
			}
		}
	}
	return ns, count
}

// fabricPhases are the profiler phases that time the network tick.
var fabricPhases = []string{"net-serial", "net-sharded"}

func singleLayers(o *outcome, w singleWorkload, traced []roundOut, plainRate, tracedRate float64) {
	n := len(traced)
	med := func(f func(r roundOut) float64) float64 { return medianOf(traced, f) }
	perCycle := func(names ...string) (func(roundOut) float64, func(roundOut) float64) {
		return func(r roundOut) float64 {
				ns, _ := phaseSum(r.prof, names...)
				return ns / float64(r.prof.Cycles)
			}, func(r roundOut) float64 {
				_, c := phaseSum(r.prof, names...)
				return float64(c) / float64(r.prof.Cycles)
			}
	}
	o.set("core.new_s", "s", med(func(r roundOut) float64 { return r.newD.Seconds() }), n)
	o.set("core.warm_s", "s", med(func(r roundOut) float64 { return r.warmD.Seconds() }), n)
	o.set("core.settle_s", "s", med(func(r roundOut) float64 { return r.settleD.Seconds() }), n)
	cpuNs, cpuEv := perCycle("cpu")
	o.set("cpu.ns_per_cycle", "ns", med(cpuNs), n)
	o.set("cpu.events_per_cycle", "count", med(cpuEv), n)
	protoNs, protoEv := perCycle("protocol")
	o.set("protocol.ns_per_cycle", "ns", med(protoNs), n)
	o.set("protocol.events_per_cycle", "count", med(protoEv), n)
	fabNs, _ := perCycle(fabricPhases...)
	o.set("fabric.ns_per_cycle", "ns", med(fabNs), n)
	o.set("fabric.ns_per_flit_hop", "ns", med(func(r roundOut) float64 {
		ns, _ := phaseSum(r.prof, fabricPhases...)
		return ns / float64(r.res.FlitHops)
	}), n)
	engNs, _ := perCycle("engine")
	o.set("sim.engine_ns_per_cycle", "ns", med(engNs), n)

	res := traced[0].res
	o.set("noc.flit_hops_per_cycle", "count", float64(res.FlitHops)/float64(res.Cycles), n)
	o.set("dtdma.bus_flits_per_cycle", "count", float64(res.BusFlits)/float64(res.Cycles), n)
	o.set("cache.l2_hit_ratio", "ratio", float64(res.L2Hits)/float64(res.L2Accesses), n)
	o.set("core.step2_searches_per_l2_access", "ratio", float64(res.Step2Searches)/float64(res.L2Accesses), n)
	o.set("core.migrations_per_kcycle", "count", 1000*float64(res.Migrations)/float64(res.Cycles), n)
	o.set("host.alloc_bytes_per_cycle", "B", med(func(r roundOut) float64 { return float64(r.allocBytes) / float64(r.res.Cycles) }), n)
	o.set("host.gc_cycles", "count", med(func(r roundOut) float64 { return float64(r.gcs) }), n)

	o.set("config.hash_us", "us", hashMicros(w.config()), hashSamples)
	o.set("bench.trace_overhead_pct", "%", 100*(plainRate/tracedRate-1), n)
}

// The serving probe: probeMisses distinct short jobs on the workload's
// own machine, then probeHits resubmissions of the first.
const (
	probeMisses = 3
	probeHits   = 200
)

// serveProbe serves the workload's machine from an in-process daemon:
// every traced run reports every per-layer figure, and this way the
// runner, instrument and serving ones are measured on this machine rather
// than read as constants. The jobs have the daemon-mixed shape (thermal
// loop, every DTM actuator, default sampling) with this workload's config
// and benchmark.
func serveProbe(o *outcome, w singleWorkload, seed uint64, tr *tracer) error {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	cfg := w.config()
	cfg.DTMPolicy = jobDTM
	var misses []missRec
	var hitBody, hitWant []byte
	for k := 0; k < probeMisses; k++ {
		req := jobRequest(seed, tagProbe, k)
		req.Config, req.Benchmark = &cfg, w.bench
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r, err := submit(c, d.base, body)
		tr.add("POST /jobs probe miss", 0, 0, time.Now().Add(-r.dur), time.Now())
		o.attempted++
		if f := missFault(r, err); f != "" {
			o.fail("probe miss %d: %s", k, f)
			continue
		}
		misses = append(misses, missRec{id: r.id, bench: w.bench, dur: r.dur})
		if hitBody == nil {
			hitBody, hitWant = body, r.results
		}
	}
	if hitBody == nil {
		return fmt.Errorf("no probe job succeeded")
	}
	var hitBytes int
	for k := 0; k < probeHits; k++ {
		r, err := submit(c, d.base, hitBody)
		tr.add("POST /jobs probe hit", 0, 0, time.Now().Add(-r.dur), time.Now())
		o.attempted++
		if f := hitFault(r, err, hitWant); f != "" {
			o.fail("probe hit %d: %s", k, f)
			continue
		}
		hitBytes += r.size
	}
	shape, err := timeShape(cfg, w.bench, jobRequest(seed, tagProbe, 0).Seed, false, tr)
	if err != nil {
		return err
	}
	var s scrape
	if err := s.add(d, tr); err != nil {
		return err
	}
	setupMS := map[string]float64{w.bench: float64((shape.newD + shape.warmD).Nanoseconds()) / 1e6}
	serveLayers(o, &s, misses, setupMS, hitBytes, probeHits)
	return nil
}

// hashSamples is how many CanonicalConfigHash calls config.hash_us times.
const hashSamples = 1000

// hashMicros is the median time of one nim.CanonicalConfigHash call.
func hashMicros(cfg nim.Config) float64 {
	xs := make([]float64, hashSamples)
	for i := range xs {
		t := time.Now()
		_ = nim.CanonicalConfigHash(cfg)
		xs[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return median(xs)
}
