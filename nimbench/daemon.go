package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	nim "repro"
)

// The daemon-mixed job shape: the default machine, daemon-default
// sampling, and the thermal loop with every DTM actuator on. The windows
// keep a miss near 100 ms on a 2-CPU host, so one run sees well over 100.
const (
	jobWarm        = 5_000
	jobMeasure     = 20_000
	jobThermal     = 2_000
	jobDTM         = "all"
	hitSetSize     = 4 // prefilled jobs the hit client cycles through
	daemonSessions = 7 // fresh daemons per run; setup_s is the median of their set-ups
)

// jobRequest is the k-th generated job: benchmarks cycle through all nine
// SPEC OMP profiles, seeds come from the workload seed. tag separates the
// miss stream from the hit set so the two never share a job.
func jobRequest(seed uint64, tag uint64, k int) nim.ServerJobRequest {
	warm, measure := uint64(jobWarm), uint64(jobMeasure)
	benches := nim.Benchmarks(nim.DefaultConfig(nim.CMPDNUCA3D).NumCPUs)
	return nim.ServerJobRequest{
		Benchmark:       benches[k%len(benches)].Name,
		WarmCycles:      &warm,
		MeasureCycles:   &measure,
		Seed:            splitmix64(seed ^ tag<<56 ^ uint64(k)),
		ThermalInterval: jobThermal,
		DTMPolicy:       jobDTM,
	}
}

const (
	tagMiss  = 1
	tagHit   = 2
	tagProbe = 3 // the single runs' serving probe
)

// daemon is an in-process nim.Server on a loopback listener.
type daemon struct {
	srv  *nim.Server
	http *http.Server
	done chan error
	base string
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  nim.NewServer(nim.ServerOptions{Workers: 1}),
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.http.Serve(ln) }()
	c := newClient()
	defer c.CloseIdleConnections()
	for i := 0; ; i++ {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 1000 {
			d.stop()
			return nil, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener, waits for the serve goroutine, then drains the
// worker pool.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // a timed-out shutdown still closes the listener
	<-d.done
	d.srv.Close()
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
}

// reply is one POST /jobs?wait=1 round trip.
type reply struct {
	code    int
	cache   string
	id      string
	state   string
	results json.RawMessage
	size    int
	dur     time.Duration
}

func submit(c *http.Client, base string, body []byte) (reply, error) {
	t0 := time.Now()
	resp, err := c.Post(base+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{code: resp.StatusCode, cache: resp.Header.Get("X-Cache"), size: len(b), dur: time.Since(t0)}
	if err != nil {
		return r, err
	}
	var st struct {
		ID      string          `json:"id"`
		State   string          `json:"state"`
		Results json.RawMessage `json:"results"`
	}
	if r.code/100 == 2 {
		if err := json.Unmarshal(b, &st); err != nil {
			return r, fmt.Errorf("decoding job status: %w", err)
		}
	}
	r.id, r.state, r.results = st.ID, st.State, st.Results
	return r, nil
}

// missFault says what is wrong with a cold job's reply, or "" if nothing:
// it must be a 200 that missed the cache and finished with results.
func missFault(r reply, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case r.code != http.StatusOK || r.cache != "miss" || r.state != "done" || len(r.results) == 0:
		return fmt.Sprintf("HTTP %d X-Cache %q state %q", r.code, r.cache, r.state)
	}
	return ""
}

// hitFault says what is wrong with a resubmitted job's reply, or "" if
// nothing: it must be a 200 cache hit carrying exactly the bytes the
// job's miss returned.
func hitFault(r reply, err error, want []byte) string {
	switch {
	case err != nil:
		return err.Error()
	case r.code != http.StatusOK || r.cache != "hit":
		return fmt.Sprintf("HTTP %d X-Cache %q", r.code, r.cache)
	case !bytes.Equal(r.results, want):
		return "results differ from the bytes the miss returned"
	}
	return ""
}

// simulated re-encodes a Results document without its host-side reports
// (Profile, Digests): what a seed must reproduce exactly.
func simulated(b []byte) ([]byte, error) {
	var res nim.Results
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("decoding Results: %w", err)
	}
	res.Profile, res.Digests = nil, nil
	return json.Marshal(res)
}

// missRec is one completed miss, kept for the traced run's analysis.
type missRec struct {
	id      string
	bench   string
	results json.RawMessage
	dur     time.Duration
}

// setUp starts a daemon and prefills the hit set with cold jobs; its
// duration is one setup_s sample.
func setUp(seed uint64, o *outcome, tr *tracer) (*daemon, [][]byte, [][]byte, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	tr.add("nim.NewServer+ready", 0, 0, t0, time.Now())
	c := newClient()
	defer c.CloseIdleConnections()
	bodies := make([][]byte, hitSetSize)
	want := make([][]byte, hitSetSize)
	for k := range bodies {
		bodies[k], _ = json.Marshal(jobRequest(seed, tagHit, k))
		r, err := submit(c, d.base, bodies[k])
		tr.add("POST /jobs prefill", 0, 0, time.Now().Add(-r.dur), time.Now())
		o.attempted++
		if err != nil {
			d.stop()
			return nil, nil, nil, 0, err
		}
		if f := missFault(r, nil); f != "" {
			o.fail("prefill %d: %s", k, f)
		}
		want[k] = r.results
	}
	return d, bodies, want, time.Since(t0), nil
}

// loop accumulates the closed loop's samples over a run's sessions.
type loop struct {
	setups   []float64
	misses   []missRec
	hitsUS   []float64
	hitBytes int
	prefill  [][]byte // the first session's prefill Results, host reports stripped
	nextMiss int      // miss jobs are numbered across sessions, so none repeats
	alloc    uint64   // heap bytes allocated while the clients ran
	gcs      uint32
	scraped  scrape // every session's /metrics, merged (traced runs only)
}

func runDaemon(opt options, tr *tracer) (outcome, error) {
	var o outcome
	var l loop
	// The run is daemonSessions equal sessions, set-ups included, so the
	// set-up samples are spread over the run like the loop's samples.
	start := time.Now()
	per := time.Duration(opt.seconds) * time.Second / daemonSessions
	for i := 1; i <= daemonSessions; i++ {
		if err := session(opt, start.Add(time.Duration(i)*per), &l, &o, tr); err != nil {
			return o, err
		}
	}
	if len(l.misses) == 0 || len(l.hitsUS) == 0 {
		return o, fmt.Errorf("no successful misses (%d) or hits (%d)", len(l.misses), len(l.hitsUS))
	}

	missMS := make([]float64, len(l.misses))
	rates := make([]float64, len(l.misses))
	for i, m := range l.misses {
		missMS[i] = float64(m.dur.Nanoseconds()) / 1e6
		rates[i] = (jobWarm + jobMeasure) / m.dur.Seconds()
	}
	// ipc and l2_hit_latency_cycles are the hit set's means: fixed jobs
	// per seed, so they repeat exactly.
	var ipc, lat float64
	for _, b := range l.prefill {
		var res nim.Results
		if err := json.Unmarshal(b, &res); err != nil {
			return o, fmt.Errorf("decoding hit-set results: %w", err)
		}
		ipc += res.IPC / hitSetSize
		lat += res.AvgL2HitLatency / hitSetSize
	}
	o.set("sim_cycles_per_s", "cycles/s", median(rates), len(l.misses))
	o.set("setup_s", "s", median(l.setups), len(l.setups))
	o.set("ipc", "instr/cycle", ipc, hitSetSize)
	o.set("l2_hit_latency_cycles", "cycles", lat, hitSetSize)
	o.set("hit_latency_p50_us", "us", quantile(l.hitsUS, 0.50), len(l.hitsUS))
	o.set("hit_latency_p99_us", "us", quantile(l.hitsUS, 0.99), len(l.hitsUS))
	o.set("miss_latency_p50_ms", "ms", quantile(missMS, 0.50), len(l.misses))
	o.set("miss_latency_p90_ms", "ms", quantile(missMS, 0.90), len(l.misses))
	o.notes = map[string]any{"misses": len(l.misses), "hits": len(l.hitsUS), "sessions": len(l.setups),
		"job_warm_cycles": jobWarm, "job_measure_cycles": jobMeasure, "hit_set": hitSetSize}

	if opt.trace {
		if err := daemonLayers(&o, opt.seed, &l, tr); err != nil {
			return o, err
		}
	}
	return o, nil
}

// session starts a fresh daemon, prefills its hit set (one setup_s
// sample), runs the two closed-loop clients until end, and stops the
// daemon.
func session(opt options, end time.Time, l *loop, o *outcome, tr *tracer) error {
	runtime.GC()
	d, hitBodies, hitWant, dur, err := setUp(opt.seed, o, tr)
	if err != nil {
		return err
	}
	defer d.stop()
	l.setups = append(l.setups, dur.Seconds())
	// Every session simulates the same hit set, so apart from the host
	// reports its Results must repeat the first session's exactly.
	for k, b := range hitWant {
		sim, err := simulated(b)
		if err != nil {
			return fmt.Errorf("prefill %d: %w", k, err)
		}
		if len(l.prefill) < hitSetSize {
			l.prefill = append(l.prefill, sim)
		} else if !bytes.Equal(sim, l.prefill[k]) {
			o.fail("prefill %d: Results differ from the first session's: %s", k, diffFields(l.prefill[k], sim))
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var mu sync.Mutex // guards o from the two clients
	var misses []missRec
	nextMiss := l.nextMiss
	var hitsUS []float64
	var hitBytes int
	var wg sync.WaitGroup
	wg.Add(2)
	// Each client sends at least one request, however short the session.
	go func() { // the miss client: distinct cold jobs
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		span := tr.reserve("miss client", 0, 1)
		for first := true; first || time.Now().Before(end); first = false {
			k := nextMiss
			nextMiss++
			req := jobRequest(opt.seed, tagMiss, k)
			body, _ := json.Marshal(req)
			r, err := submit(c, d.base, body)
			now := time.Now()
			tr.add("POST /jobs miss", span, 1, now.Add(-r.dur), now)
			rec := missRec{id: r.id, bench: req.Benchmark, dur: r.dur}
			if opt.trace {
				// Kept only for the per-layer figures: holding every
				// miss's bytes would make peak RSS follow the miss count.
				rec.results = r.results
			}
			mu.Lock()
			o.attempted++
			if f := missFault(r, err); f != "" {
				o.fail("miss %d: %s", k, f)
			} else {
				misses = append(misses, rec)
			}
			mu.Unlock()
		}
		tr.close(span, time.Now())
	}()
	go func() { // the hit client: resubmits the prefilled jobs
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		span := tr.reserve("hit client", 0, 2)
		for k := 0; k == 0 || time.Now().Before(end); k++ {
			r, err := submit(c, d.base, hitBodies[k%hitSetSize])
			now := time.Now()
			tr.add("POST /jobs hit", span, 2, now.Add(-r.dur), now)
			mu.Lock()
			o.attempted++
			if f := hitFault(r, err, hitWant[k%hitSetSize]); f != "" {
				o.fail("hit %d: %s", k, f)
			} else {
				hitsUS = append(hitsUS, float64(r.dur.Nanoseconds())/1e3)
				hitBytes += r.size
			}
			mu.Unlock()
		}
		tr.close(span, time.Now())
	}()
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	l.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	l.gcs += ms1.NumGC - ms0.NumGC
	l.misses = append(l.misses, misses...)
	l.hitsUS = append(l.hitsUS, hitsUS...)
	l.hitBytes += hitBytes
	l.nextMiss = nextMiss
	if opt.trace {
		return l.scraped.add(d, tr)
	}
	return nil
}

// daemonLayers derives the traced run's per-layer figures from the miss
// jobs' own Results.Profile, a /metrics scrape, and in-process timing of
// the public calls a miss runs.
func daemonLayers(o *outcome, seed uint64, l *loop, tr *tracer) error {
	misses, n := l.misses, len(l.misses)
	var cpuNs, protoNs, fabNs, engNs, cpuEv, protoEv float64
	var profCycles, cycles, hops, bus, l2, l2hits, step2, migr float64
	for _, m := range misses {
		var res nim.Results
		if err := json.Unmarshal(m.results, &res); err != nil {
			return fmt.Errorf("decoding miss results: %w", err)
		}
		ns, ev := phaseSum(res.Profile, "cpu")
		cpuNs, cpuEv = cpuNs+ns, cpuEv+float64(ev)
		ns, ev = phaseSum(res.Profile, "protocol")
		protoNs, protoEv = protoNs+ns, protoEv+float64(ev)
		ns, _ = phaseSum(res.Profile, fabricPhases...)
		fabNs += ns
		ns, _ = phaseSum(res.Profile, "engine")
		engNs += ns
		if res.Profile != nil {
			profCycles += float64(res.Profile.Cycles)
		}
		cycles += float64(res.Cycles)
		hops += float64(res.FlitHops)
		bus += float64(res.BusFlits)
		l2 += float64(res.L2Accesses)
		l2hits += float64(res.L2Hits)
		step2 += float64(res.Step2Searches)
		migr += float64(res.Migrations)
	}
	o.set("cpu.ns_per_cycle", "ns", cpuNs/profCycles, n)
	o.set("cpu.events_per_cycle", "count", cpuEv/profCycles, n)
	o.set("protocol.ns_per_cycle", "ns", protoNs/profCycles, n)
	o.set("protocol.events_per_cycle", "count", protoEv/profCycles, n)
	o.set("fabric.ns_per_cycle", "ns", fabNs/profCycles, n)
	// The profile spans warm + measure while FlitHops counts only the
	// measure window: scale the fabric time to the window first.
	o.set("fabric.ns_per_flit_hop", "ns", fabNs*(cycles/profCycles)/hops, n)
	o.set("sim.engine_ns_per_cycle", "ns", engNs/profCycles, n)
	o.set("noc.flit_hops_per_cycle", "count", hops/cycles, n)
	o.set("dtdma.bus_flits_per_cycle", "count", bus/cycles, n)
	o.set("cache.l2_hit_ratio", "ratio", l2hits/l2, n)
	o.set("core.step2_searches_per_l2_access", "ratio", step2/l2, n)
	o.set("core.migrations_per_kcycle", "count", 1000*migr/cycles, n)
	o.set("host.alloc_bytes_per_cycle", "B", float64(l.alloc)/(float64(n)*(jobWarm+jobMeasure)), n)
	o.set("host.gc_cycles", "count", float64(l.gcs), len(l.setups))

	// A miss's set-up, timed from outside: each miss shape run in process
	// once the daemon is idle, plain and then with the profiler attached.
	req := jobRequest(seed, tagMiss, 0)
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	cfg.DTMPolicy = req.DTMPolicy
	setupMS := map[string]float64{}
	var news, warms, settles []float64
	var plainD, profD time.Duration
	for _, b := range nim.Benchmarks(cfg.NumCPUs) {
		plain, err := timeShape(cfg, b.Name, req.Seed, false, tr)
		if err != nil {
			return err
		}
		profiled, err := timeShape(cfg, b.Name, req.Seed, true, tr)
		if err != nil {
			return err
		}
		setupMS[b.Name] = float64((plain.newD + plain.warmD).Nanoseconds()) / 1e6
		news = append(news, plain.newD.Seconds())
		warms = append(warms, plain.warmD.Seconds())
		settles = append(settles, plain.settleD.Seconds())
		plainD += plain.measureD
		profD += profiled.measureD
	}
	o.set("core.new_s", "s", median(news), len(news))
	o.set("core.warm_s", "s", median(warms), len(warms))
	o.set("core.settle_s", "s", median(settles), len(settles))
	o.set("config.hash_us", "us", hashMicros(cfg), hashSamples)
	// The daemon always profiles, so it has no plain twin: the overhead is
	// that of the miss shapes' measure windows.
	o.set("bench.trace_overhead_pct", "%", 100*(profD.Seconds()/plainD.Seconds()-1), len(news))
	serveLayers(o, &l.scraped, misses, setupMS, l.hitBytes, len(l.hitsUS))
	return nil
}

// shapeTimes is one job shape run in process: its set-up calls and the
// host time of its measure window.
type shapeTimes struct{ newD, warmD, settleD, measureD time.Duration }

// timeShape runs a daemon job's shape through the library, NewSimulation
// → Warm → Start → Run(jobWarm) → Run(jobMeasure), attaching the profiler
// for the measure window when profiled, and times each call.
func timeShape(cfg nim.Config, bench string, seed uint64, profiled bool, tr *tracer) (shapeTimes, error) {
	b, ok := nim.BenchmarkByName(bench, cfg.NumCPUs)
	if !ok {
		return shapeTimes{}, fmt.Errorf("unknown benchmark %q", bench)
	}
	runtime.GC()
	t0 := time.Now()
	sim, err := nim.NewSimulation(cfg, b, seed)
	if err != nil {
		return shapeTimes{}, err
	}
	defer sim.Close()
	t1 := time.Now()
	sim.Warm()
	t2 := time.Now()
	sim.Start()
	sim.Run(jobWarm)
	t3 := time.Now()
	if profiled {
		sim.AttachProfile()
	}
	sim.Run(jobMeasure)
	t4 := time.Now()
	name := "job shape " + bench
	if profiled {
		name += " (profiled)"
	}
	parent := tr.add(name, 0, 0, t0, t4)
	tr.add("nim.NewSimulation", parent, 0, t0, t1)
	tr.add("Simulation.Warm", parent, 0, t1, t2)
	tr.add("Simulation.Start+Run(settle)", parent, 0, t2, t3)
	tr.add("Simulation.Run(measure)", parent, 0, t3, t4)
	return shapeTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)}, nil
}

// scrape is what the benchmark reads from /metrics: the daemon's counters
// and each job's phase seconds.
type scrape struct {
	totals map[string]float64            // counter → value
	phases map[string]map[string]float64 // job id → phase → seconds
}

// add reads d's /metrics into s, summing with what s already holds.
func (s *scrape) add(d *daemon, tr *tracer) error {
	if s.totals == nil {
		s.totals, s.phases = map[string]float64{}, map[string]map[string]float64{}
	}
	c := newClient()
	defer c.CloseIdleConnections()
	t0 := time.Now()
	resp, err := c.Get(d.base + "/metrics")
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		switch name {
		case "nimsim_cache_hits_total", "nimsim_jobs_completed_total", "nimsim_jobs_failed_total", "nimsim_rejected_total":
			s.totals[name] += v
		case "nimsim_job_phase_seconds":
			job, phase := label(labels, "job"), label(labels, "phase")
			if s.phases[job] == nil {
				s.phases[job] = map[string]float64{}
			}
			s.phases[job][phase] += v
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	tr.add("GET /metrics", 0, 0, t0, time.Now())
	return nil
}

// serveLayers sets the runner, instrument and serving figures from
// scraped /metrics: the miss jobs' summed phase seconds, the daemon's
// counters, and what is left of a miss round trip once its outside-timed
// set-up (setupMS, by benchmark) and its loop are taken off.
func serveLayers(o *outcome, s *scrape, misses []missRec, setupMS map[string]float64, hitBytes, hits int) {
	var setup, loop, thermal, sampler, missMS float64
	for _, m := range misses {
		for _, sec := range s.phases[m.id] {
			loop += 1e3 * sec
		}
		thermal += 1e3 * s.phases[m.id]["thermal"]
		sampler += 1e3 * s.phases[m.id]["sampler"]
		setup += setupMS[m.bench]
		missMS += float64(m.dur.Nanoseconds()) / 1e6
	}
	n := len(misses)
	per := func(ms float64) float64 { return ms / float64(n) }
	o.set("runner.setup_ms", "ms", per(setup), n)
	o.set("runner.loop_ms", "ms", per(loop), n)
	o.set("thermal.ms_per_job", "ms", per(thermal), n)
	o.set("sampler.ms_per_job", "ms", per(sampler), n)
	o.set("serve.miss_overhead_ms", "ms", per(missMS-setup-loop), n)
	o.set("serve.hit_bytes", "B", float64(hitBytes)/float64(hits), hits)
	o.set("serve.cache_hits", "count", s.totals["nimsim_cache_hits_total"], 1)
	o.set("serve.jobs_completed", "count", s.totals["nimsim_jobs_completed_total"], 1)
	o.set("serve.jobs_failed", "count", s.totals["nimsim_jobs_failed_total"], 1)
	o.set("serve.rejected", "count", s.totals["nimsim_rejected_total"], 1)
}

// label extracts one label's value from a Prometheus `{k="v",...}` set.
func label(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
