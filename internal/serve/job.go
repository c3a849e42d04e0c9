package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/digest"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/stats"
)

// ParseScheme resolves the short scheme names used on the command line
// and in job submissions.
func ParseScheme(name string) (config.Scheme, bool) {
	switch strings.ToLower(name) {
	case "dnuca":
		return config.CMPDNUCA, true
	case "dnuca2d":
		return config.CMPDNUCA2D, true
	case "snuca3d":
		return config.CMPSNUCA3D, true
	case "dnuca3d":
		return config.CMPDNUCA3D, true
	}
	return 0, false
}

// JobRequest is the POST /jobs body. Either set Config to a complete
// machine description, or name a Scheme and let the Table 4 defaults plus
// the optional overrides build one. Omitted warm/measure windows default
// to the CLI's 50k/250k; an explicit 0 is honored literally.
type JobRequest struct {
	Scheme    string `json:"scheme,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`

	WarmCycles    *uint64 `json:"warm_cycles,omitempty"`
	MeasureCycles *uint64 `json:"measure_cycles,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`

	// SampleInterval is the metrics sampling period in cycles; 0 selects
	// the server's default, so every job is streamable by default. Set
	// NoSamples to run without a sampler at all (no live stream).
	SampleInterval  uint64 `json:"sample_interval,omitempty"`
	NoSamples       bool   `json:"no_samples,omitempty"`
	ThermalInterval uint64 `json:"thermal_interval,omitempty"`
	RecordSpans     bool   `json:"record_spans,omitempty"`

	// DigestInterval, when non-zero, attaches the state-digest recorder
	// (runner.Job.DigestInterval): the job's Results carry the Digests
	// report, GET /jobs/{id} a digest summary, and /metrics the
	// nimsim_job_digest_info family. It IS part of the job identity —
	// digesting adds the Digests field to the Results bytes, so digested
	// and undigested submissions must not share a cache entry.
	DigestInterval uint64 `json:"digest_interval,omitempty"`
	// DigestVerify, when true (and DigestInterval non-zero), makes the
	// worker rerun the job as a plain reference after the primary run
	// and compare the two digest streams, publishing any mismatch as
	// nimsim_job_digest_mismatch_cycle — a paid-for, on-demand audit of
	// rerun determinism (it roughly doubles the job's cost). It is NOT
	// part of the job identity (it changes no Results byte), so the flag
	// on the submission that first registers the job wins; coalesced and
	// cached submissions inherit it.
	DigestVerify bool `json:"digest_verify,omitempty"`

	// Config-building overrides (ignored when Config is given).
	Layers    int     `json:"layers,omitempty"`
	Pillars   int     `json:"pillars,omitempty"`
	L2MB      int     `json:"l2_mb,omitempty"`
	StackCPUs bool    `json:"stack_cpus,omitempty"`
	DTMPolicy string  `json:"dtm_policy,omitempty"`
	TripTempC float64 `json:"trip_temp_c,omitempty"`
	DutyCycle string  `json:"duty_cycle,omitempty"`

	// Config, when non-nil, is the complete machine description and
	// overrides every building field above.
	Config *config.Config `json:"config,omitempty"`
}

// buildJob normalizes a request into the runner job it describes, or
// rejects it. The returned job carries no hooks; the worker adds them.
func (s *Server) buildJob(req JobRequest) (runner.Job, error) {
	var cfg config.Config
	switch {
	case req.Config != nil:
		cfg = *req.Config
	default:
		schemeName := req.Scheme
		if schemeName == "" {
			schemeName = "dnuca3d"
		}
		sch, ok := ParseScheme(schemeName)
		if !ok {
			return runner.Job{}, fmt.Errorf("unknown scheme %q (want dnuca, dnuca2d, snuca3d, dnuca3d)", req.Scheme)
		}
		cfg = config.Default(sch)
		if req.Layers > 0 {
			cfg.Layers = req.Layers
		}
		if req.Pillars > 0 {
			cfg.NumPillars = req.Pillars
		}
		if req.L2MB > 0 {
			var err error
			if cfg, err = cfg.WithL2Size(req.L2MB); err != nil {
				return runner.Job{}, err
			}
		}
		cfg.StackCPUs = req.StackCPUs
		cfg.DTMPolicy = req.DTMPolicy
		cfg.TripTempC = req.TripTempC
		cfg.DutyCycle = req.DutyCycle
	}
	if err := cfg.Validate(); err != nil {
		return runner.Job{}, err
	}

	bench := req.Benchmark
	if bench == "" {
		bench = "mgrid"
	}
	warm, measure := uint64(50_000), uint64(250_000)
	if req.WarmCycles != nil {
		warm = *req.WarmCycles
	}
	if req.MeasureCycles != nil {
		measure = *req.MeasureCycles
	}
	sample := req.SampleInterval
	if sample == 0 && !req.NoSamples {
		sample = s.opts.DefaultSampleInterval
	}
	if req.NoSamples {
		sample = 0
	}
	thermal := req.ThermalInterval
	if cfg.DTMActive() && thermal == 0 {
		// DTM needs the thermal loop; default its step to the sampling
		// period (or the sampler default) instead of failing the job.
		thermal = sample
		if thermal == 0 {
			thermal = s.opts.DefaultSampleInterval
		}
	}
	return runner.Job{
		Config:          cfg,
		Benchmark:       bench,
		WarmCycles:      warm,
		MeasureCycles:   measure,
		Seed:            req.Seed,
		SampleInterval:  sample,
		ThermalInterval: thermal,
		RecordSpans:     req.RecordSpans,
		DigestInterval:  req.DigestInterval,
	}, nil
}

// jobIdentity is the canonical cache key: every field that can change a
// deterministic run's observable output. Hashing its JSON encoding gives
// the job id — identical submissions collapse onto one registry entry,
// which is the whole caching and coalescing mechanism.
type jobIdentity struct {
	ConfigHash      string `json:"config_hash"`
	Benchmark       string `json:"benchmark"`
	WarmCycles      uint64 `json:"warm_cycles"`
	MeasureCycles   uint64 `json:"measure_cycles"`
	Seed            uint64 `json:"seed"`
	SampleInterval  uint64 `json:"sample_interval"`
	ThermalInterval uint64 `json:"thermal_interval"`
	RecordSpans     bool   `json:"record_spans"`
	DigestInterval  uint64 `json:"digest_interval"`
}

// jobID derives the registry key for a normalized runner job: 16 hex
// characters of the SHA-256 of the job's canonical identity.
func jobID(j runner.Job) string {
	ident := jobIdentity{
		ConfigHash:      config.CanonicalHash(j.Config),
		Benchmark:       j.Benchmark,
		WarmCycles:      j.WarmCycles,
		MeasureCycles:   j.MeasureCycles,
		Seed:            j.Seed,
		SampleInterval:  j.SampleInterval,
		ThermalInterval: j.ThermalInterval,
		RecordSpans:     j.RecordSpans,
		DigestInterval:  j.DigestInterval,
	}
	b, err := json.Marshal(ident)
	if err != nil {
		panic(fmt.Sprintf("serve: job identity encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Job states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// job is one registry entry: the normalized runner job plus everything
// its worker has published so far. All mutable fields are guarded by mu;
// cond broadcasts on every publication (new row, fraction, state change)
// so SSE streams and ?wait=1 submissions can sleep instead of polling.
type job struct {
	mu   sync.Mutex
	cond *sync.Cond

	id  string
	run runner.Job // hook-free template; the worker adds hooks

	// verify records the first submission's DigestVerify request; the
	// worker acts on it after the primary run (see Server.runJob).
	verify bool

	state    string
	fraction float64
	submits  int // total POSTs that mapped here (1 + hits + coalesces)
	created  time.Time
	finished time.Time

	header   []string
	rows     [][]float64
	counters []stats.NameValue
	profile  *prof.Snapshot // latest host-side phase snapshot, nil until first chunk

	digest        *digest.Report // final digest report, nil unless the job digested
	droppedEvents uint64         // trace-ring events lost to backpressure (obs.RingSink)
	verified      bool           // reference rerun completed and streams compared
	mismatch      bool           // the reference comparison found a divergence
	mismatchCycle uint64
	mismatchLane  string

	resultJSON json.RawMessage // canonical Results bytes, marshaled once
	errMsg     string
}

func newJob(id string, run runner.Job, now time.Time) *job {
	rec := &job{id: id, run: run, state: StateQueued, submits: 1, created: now}
	rec.cond = sync.NewCond(&rec.mu)
	return rec
}

// terminal reports whether state is one a job never leaves.
func terminal(state string) bool { return state == StateDone || state == StateFailed }

func (rec *job) setState(state string) {
	rec.mu.Lock()
	rec.state = state
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

// setFraction is the runner Progress hook.
func (rec *job) setFraction(f float64) {
	rec.mu.Lock()
	rec.fraction = f
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

// setCounters is the runner OnStats hook; snap is already a self-owned
// copy (stats.Set.Snapshot), so the record can retain it as-is.
func (rec *job) setCounters(snap []stats.NameValue) {
	rec.mu.Lock()
	rec.counters = snap
	rec.mu.Unlock()
}

// setProfile is the runner OnProfile hook: the latest host-side phase
// snapshot. Snapshots are self-contained values, so the record just
// swaps in the newest; /metrics reads the pointer under mu and never
// mutates through it.
func (rec *job) setProfile(snap prof.Snapshot) {
	rec.mu.Lock()
	rec.profile = &snap
	rec.mu.Unlock()
}

// appendRow is the runner OnSample hook. The sampler owns its slices, so
// the row is copied before publication; the header is copied once.
func (rec *job) appendRow(header []string, row []float64) {
	rec.mu.Lock()
	if rec.header == nil {
		rec.header = append([]string(nil), header...)
	}
	rec.rows = append(rec.rows, append([]float64(nil), row...))
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

// setDigest publishes the run's final digest report and the trace-ring
// drop count alongside it (both land together, from the run's Results).
func (rec *job) setDigest(rep *digest.Report, dropped uint64) {
	rec.mu.Lock()
	rec.digest = rep
	rec.droppedEvents = dropped
	rec.mu.Unlock()
}

// setVerify publishes the outcome of the reference-rerun digest
// comparison (see Server.runJob).
func (rec *job) setVerify(mismatch bool, cycle uint64, lane string) {
	rec.mu.Lock()
	rec.verified = true
	rec.mismatch = mismatch
	rec.mismatchCycle = cycle
	rec.mismatchLane = lane
	rec.mu.Unlock()
}

// finish publishes the final Results bytes and flips the state to done.
// The bytes are marshaled exactly once and served verbatim from then on,
// which is what makes a cache hit byte-identical to the first run.
func (rec *job) finish(resultJSON []byte, now time.Time) {
	rec.mu.Lock()
	rec.resultJSON = resultJSON
	rec.fraction = 1
	rec.state = StateDone
	rec.finished = now
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

func (rec *job) fail(err error, now time.Time) {
	rec.mu.Lock()
	rec.errMsg = err.Error()
	rec.state = StateFailed
	rec.finished = now
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

// JobStatus is the wire representation of a job on /jobs and /jobs/{id}.
type JobStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Fraction   float64         `json:"fraction"`
	Submits    int             `json:"submits"`
	Scheme     string          `json:"scheme"`
	Benchmark  string          `json:"benchmark"`
	ConfigHash string          `json:"config_hash"`
	Created    time.Time       `json:"created"`
	Rows       int             `json:"rows_streamed"`
	Error      string          `json:"error,omitempty"`
	Digest     *DigestStatus   `json:"digest,omitempty"`
	Results    json.RawMessage `json:"results,omitempty"`
}

// DigestStatus summarizes a digested job on the status API: the run's
// final 64-bit state digest plus, when DigestVerify was requested, the
// outcome of the reference-rerun comparison.
type DigestStatus struct {
	Digest   string `json:"digest"`
	Interval uint64 `json:"interval"`
	Records  int    `json:"records"`
	// Verified reports that the reference rerun completed and its
	// digest stream was compared against the primary run's.
	Verified bool `json:"verified,omitempty"`
	// Mismatch, MismatchCycle, and MismatchLane report the comparison's
	// first point of departure, present only when the streams differed.
	Mismatch      bool   `json:"mismatch,omitempty"`
	MismatchCycle uint64 `json:"mismatch_cycle,omitempty"`
	MismatchLane  string `json:"mismatch_lane,omitempty"`
}

// status snapshots the record for the JSON API. withResults selects
// whether the (possibly large) Results payload rides along.
func (rec *job) status(withResults bool) JobStatus {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	st := JobStatus{
		ID:         rec.id,
		State:      rec.state,
		Fraction:   rec.fraction,
		Submits:    rec.submits,
		Scheme:     rec.run.Config.Scheme.String(),
		Benchmark:  rec.run.Benchmark,
		ConfigHash: config.CanonicalHash(rec.run.Config),
		Created:    rec.created,
		Rows:       len(rec.rows),
		Error:      rec.errMsg,
	}
	if rec.digest != nil {
		st.Digest = &DigestStatus{
			Digest:        rec.digest.Digest,
			Interval:      rec.digest.Interval,
			Records:       rec.digest.Records,
			Verified:      rec.verified,
			Mismatch:      rec.mismatch,
			MismatchCycle: rec.mismatchCycle,
			MismatchLane:  rec.mismatchLane,
		}
	}
	if withResults {
		st.Results = rec.resultJSON
	}
	return st
}
