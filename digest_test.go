package nim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	nim "repro"
)

// digestRun executes one short run with the full observability stack the
// digest contract must coexist with — DTM (which subsumes the thermal
// tracker) and the metrics sampler — optionally with the digest recorder
// attached. 3D schemes use the stacked four-layer machine.
func digestRun(t testing.TB, scheme nim.Scheme, attach bool) nim.Results {
	cfg := nim.DefaultConfig(scheme)
	if cfg.Layers > 1 {
		cfg.Layers = 4
		cfg.StackCPUs = true
	}
	cfg.DTMPolicy = "all"
	bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
	sim, err := nim.NewSimulation(cfg, bench, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim.Warm()
	sim.Start()
	sim.Run(5_000)
	sim.ResetStats()
	if _, err := sim.AttachDTM(500); err != nil {
		t.Fatal(err)
	}
	// Digest before the sampler, mirroring the runner: the sampler's
	// digest columns read the freshly folded chains.
	if attach {
		sim.AttachDigest(1_000)
	}
	sim.AttachSampler(1_000)
	sim.Run(20_000)
	return sim.Results()
}

// digestJob is one sweep job on the scheme's machine (3D schemes on the
// stacked four-layer chip) with thermal, DTM "all", the sampler and a
// digest recorder attached — the runner's full instrument stack.
func digestJob(scheme nim.Scheme) nim.SweepJob {
	cfg := nim.DefaultConfig(scheme)
	if cfg.Layers > 1 {
		cfg.Layers = 4
		cfg.StackCPUs = true
	}
	cfg.DTMPolicy = "all"
	return nim.SweepJob{
		Config:          cfg,
		Benchmark:       "mgrid",
		WarmCycles:      5_000,
		MeasureCycles:   20_000,
		Seed:            3,
		SampleInterval:  777,
		ThermalInterval: 500,
		DigestInterval:  1_000,
	}
}

// runDigestJobs runs jobs one after another and fails on any job error.
func runDigestJobs(t *testing.T, jobs ...nim.SweepJob) []nim.SweepResult {
	t.Helper()
	res := nim.RunSweep(jobs, 1, nil)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Results.Digests == nil || len(r.Results.Digests.Stream) == 0 {
			t.Fatal("job produced no digest stream")
		}
	}
	return res
}

// sameStream fails the test at the first snapshot where two digest
// streams disagree, naming the cycle and subsystem.
func sameStream(t *testing.T, what string, a, b []nim.DigestRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: streams hold %d and %d records", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: streams diverge at record %d (cycle %d):\n%+v\n%+v", what, i, a[i].Cycle, a[i], b[i])
		}
	}
}

// TestDigestChunkedRunInvariance pins chunked execution as a pure
// execution strategy: a job advanced in bounded Run calls (a Progress hook
// makes the runner chunk each window, as the daemon's jobs are) follows
// the same state trajectory — every snapshot, every lane — as the same
// job run in one call per window, and produces byte-identical Results and
// sampler series, for every scheme.
func TestDigestChunkedRunInvariance(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			single := digestJob(scheme)
			chunked := single
			calls := 0
			chunked.Progress = func(float64) { calls++ }
			res := runDigestJobs(t, single, chunked)
			if calls < 64 {
				t.Fatalf("Progress called %d times: the window was not chunked", calls)
			}
			sameStream(t, "single-call vs chunked", res[0].Results.Digests.Stream, res[1].Results.Digests.Stream)
			aj, _ := json.Marshal(res[0].Results)
			bj, _ := json.Marshal(res[1].Results)
			if !bytes.Equal(aj, bj) {
				t.Fatalf("chunking changed results:\nsingle  %s\nchunked %s", aj, bj)
			}
			var as, bs bytes.Buffer
			if err := res[0].Samples.WriteCSV(&as); err != nil {
				t.Fatal(err)
			}
			if err := res[1].Samples.WriteCSV(&bs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(as.Bytes(), bs.Bytes()) {
				t.Fatalf("chunking changed the sampler series:\nsingle:\n%s\nchunked:\n%s", as.Bytes(), bs.Bytes())
			}
		})
	}
}

// TestDigestProfileInvariance: the host profiler reads the clock around
// every event and ticker, and nothing it measures may reach simulated
// state. A profiled job's digest stream equals the unprofiled job's,
// snapshot for snapshot, for every scheme.
func TestDigestProfileInvariance(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			plain := digestJob(scheme)
			profiled := plain
			profiled.Profile = true
			res := runDigestJobs(t, plain, profiled)
			if res[1].Results.Profile == nil {
				t.Fatal("profiled job returned no Profile")
			}
			sameStream(t, "unprofiled vs profiled", res[0].Results.Digests.Stream, res[1].Results.Digests.Stream)
		})
	}
}

// TestDigestDoesNotPerturb is the observer contract: attaching the
// digest recorder changes no architectural result. Results are
// bit-identical with the Digests report stripped — the same bar the
// profiler meets (TestProfileDoesNotPerturb).
func TestDigestDoesNotPerturb(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			plain := digestRun(t, scheme, false)
			observed := digestRun(t, scheme, true)
			if observed.Digests == nil {
				t.Fatal("attached run returned no Digests")
			}
			observed.Digests = nil
			pj, _ := json.Marshal(plain)
			oj, _ := json.Marshal(observed)
			if !bytes.Equal(pj, oj) {
				t.Fatalf("digest attachment changed results:\nplain    %s\nobserved %s", pj, oj)
			}
		})
	}
}

// TestDigestRecordPathAllocs pins the record path at zero allocations
// once the stream is reserved: folding every subsystem of a live
// full-stack machine (DTM, thermal, sampler attached) heap-allocates
// nothing per snapshot.
func TestDigestRecordPathAllocs(t *testing.T) {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	cfg.Layers = 4
	cfg.StackCPUs = true
	cfg.DTMPolicy = "all"
	bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
	sim, err := nim.NewSimulation(cfg, bench, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim.Warm()
	sim.Start()
	sim.Run(2_000)
	sim.ResetStats()
	if _, err := sim.AttachDTM(500); err != nil {
		t.Fatal(err)
	}
	sim.Run(2_000) // populate in-flight state for the walker to fold
	// Attach after the populate run: at interval 1 every cycle of that run
	// would otherwise be a full-machine snapshot.
	rec := sim.AttachDigest(1)
	const rounds = 200
	rec.Reserve(len(rec.Records()) + rounds + 10)
	cycle := uint64(1 << 32)
	allocs := testing.AllocsPerRun(rounds, func() {
		cycle++
		rec.Tick(cycle)
	})
	if allocs > 0 {
		t.Errorf("record path allocates %.1f times per snapshot, want 0", allocs)
	}
}
