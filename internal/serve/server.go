package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/digest"
	"repro/internal/runner"
)

// maxRequestBytes caps a POST /jobs body. A full config override is a
// few kilobytes; 1 MiB leaves ample room while bounding what one request
// can make the daemon buffer.
const maxRequestBytes = 1 << 20

// readHeaderTimeout bounds how long a client may take to send request
// headers, so a stalled connection cannot hold a server goroutine.
const readHeaderTimeout = 10 * time.Second

// Options configures a Server. The zero value serves on :8080 with
// GOMAXPROCS workers, a 64-deep queue, and 1000-cycle default sampling.
type Options struct {
	// Addr is the listen address for ListenAndServe (":8080" default).
	Addr string
	// Workers bounds concurrently running simulations; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a full queue
	// rejects new submissions with 503 (backpressure). <= 0 selects 64.
	QueueDepth int
	// DefaultSampleInterval is the metrics sampling period (cycles) for
	// jobs that do not choose one; 0 selects 1000. Sampling is what makes
	// a job's /stream live, so the default keeps every job streamable.
	DefaultSampleInterval uint64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's own mux — the deliberate way to share one listener between
	// the job API and the profiler (see PprofMux for a dedicated one).
	EnablePprof bool
	// DrainTimeout bounds how long ListenAndServe waits for open HTTP
	// connections (e.g. SSE streams) after shutdown begins; 0 selects 10s.
	// In-flight simulations are always run to completion regardless.
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultSampleInterval == 0 {
		o.DefaultSampleInterval = 1000
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// Server is the simulation-as-a-service daemon: a job registry that
// doubles as the result cache, a bounded worker pool over
// internal/runner, and the HTTP surface described in the package docs.
// Create with New (which starts the workers), serve with ListenAndServe
// or mount Handler on a listener of your own, and Close when done.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job // id → record; the registry IS the cache
	order    []string        // ids in first-submission order, for GET /jobs
	queue    chan *job
	draining bool

	wg        sync.WaitGroup // workers
	closeOnce sync.Once

	start time.Time
	m     daemonMetrics
}

// New builds a server and starts its worker pool. The returned server is
// ready: mount Handler() on any listener, or call ListenAndServe.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts.withDefaults(),
		jobs:  make(map[string]*job),
		start: time.Now(),
	}
	s.queue = make(chan *job, s.opts.QueueDepth)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.opts.EnablePprof {
		RegisterPprof(s.mux)
	}
	s.wg.Add(s.opts.Workers)
	for i := 0; i < s.opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler, for mounting on an existing
// listener or an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves the HTTP API on Options.Addr until ctx is
// canceled (wire it to SIGINT via signal.NotifyContext for the
// conventional daemon lifecycle), then drains: the listener closes, open
// connections get DrainTimeout to finish, queued and running simulations
// run to completion, and only then does ListenAndServe return.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		<-ctx.Done()
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		shCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()
	err = httpSrv.Serve(ln)
	s.Close()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.opts.Addr }

// Close stops accepting jobs, waits for every queued and running
// simulation to finish, and releases the worker pool. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		close(s.queue)
		s.mu.Unlock()
		s.wg.Wait()
	})
}

func (s *Server) worker() {
	defer s.wg.Done()
	for rec := range s.queue {
		s.runJob(rec)
	}
}

// runJob executes one registered job on this worker goroutine, publishing
// progress, sampled rows, and counter snapshots into the record as the
// simulation advances. The runner supplies panic/error capture; the
// record never leaves a terminal state, so a cached entry is immutable.
func (s *Server) runJob(rec *job) {
	rec.setState(StateRunning)
	j := rec.run
	j.Progress = rec.setFraction
	j.OnStats = rec.setCounters
	// Every job runs with the host profiler attached. The profiler is
	// provably non-perturbing (Results stay bit-identical, see
	// internal/prof), so attaching it unconditionally adds per-phase
	// wall-clock gauges to /metrics without touching the job identity —
	// a profiled run's cache entry still answers any submission.
	j.Profile = true
	j.OnProfile = rec.setProfile
	if j.SampleInterval > 0 {
		j.OnSample = rec.appendRow
	}
	res := runner.Run([]runner.Job{j}, 1)[0]
	if res.Err != nil {
		s.m.failed.Add(1)
		rec.fail(res.Err, time.Now())
		return
	}
	b, err := json.Marshal(res.Results)
	if err != nil {
		s.m.failed.Add(1)
		rec.fail(fmt.Errorf("marshaling results: %w", err), time.Now())
		return
	}
	if res.Results.Digests != nil {
		var dropped uint64
		if res.Samples != nil {
			dropped = res.Samples.DroppedEvents
		}
		rec.setDigest(res.Results.Digests, dropped)
		s.verifyDigest(rec, res.Results.Digests)
	} else if res.Samples != nil {
		rec.setDigest(nil, res.Samples.DroppedEvents)
	}
	s.m.completed.Add(1)
	rec.finish(b, time.Now())
}

// verifyDigest is the DigestVerify rerun: the same job as a plain
// reference (no hooks, so one Run call per window and no profiler), its
// digest stream compared against the primary run's chunked, profiled
// one. A mismatch names the first divergent cycle and subsystem on the
// status API and /metrics — the daemon catching nondeterminism in
// production rather than in CI. A failed rerun leaves the job
// unverified (the primary results stand).
func (s *Server) verifyDigest(rec *job, primary *digest.Report) {
	if !rec.verify {
		return
	}
	refRes := runner.Run([]runner.Job{rec.run}, 1)[0]
	if refRes.Err != nil || refRes.Results.Digests == nil {
		return
	}
	if div, ok := digest.Compare(primary.Stream, refRes.Results.Digests.Stream); ok {
		rec.setVerify(true, div.Cycle, div.Lane.String())
	} else {
		rec.setVerify(false, 0, "")
	}
}

// handleSubmit is POST /jobs: normalize, hash, and either return the
// already-registered job (cache hit when finished, coalesce when still in
// flight) or register and enqueue a new one. ?wait=1 blocks until the job
// reaches a terminal state. The X-Cache header says which path was taken:
// "hit", "coalesced", or "miss". A body over maxRequestBytes is refused
// with 413 before anything is registered.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decoding job request: %w", err))
		return
	}
	run, err := s.buildJob(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id := jobID(run)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	rec, known := s.jobs[id]
	if known {
		rec.mu.Lock()
		rec.submits++
		state := rec.state
		rec.mu.Unlock()
		s.mu.Unlock()
		if terminal(state) {
			s.m.cacheHits.Add(1)
			w.Header().Set("X-Cache", "hit")
			writeJSON(w, http.StatusOK, rec.status(true))
			return
		}
		s.m.coalesced.Add(1)
		w.Header().Set("X-Cache", "coalesced")
		s.respondMaybeWait(w, r, rec, http.StatusAccepted)
		return
	}
	rec = newJob(id, run, time.Now())
	rec.verify = req.DigestVerify && run.DigestInterval > 0
	select {
	case s.queue <- rec:
	default:
		s.mu.Unlock()
		s.m.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable,
			fmt.Errorf("job queue full (%d deep); retry later", s.opts.QueueDepth))
		return
	}
	s.jobs[id] = rec
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.m.submitted.Add(1)
	w.Header().Set("X-Cache", "miss")
	s.respondMaybeWait(w, r, rec, http.StatusAccepted)
}

// respondMaybeWait writes the job's status — after blocking for the
// terminal state first when the request carries ?wait.
func (s *Server) respondMaybeWait(w http.ResponseWriter, r *http.Request, rec *job, code int) {
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, code, rec.status(false))
		return
	}
	if !rec.awaitTerminal(r.Context()) {
		httpError(w, http.StatusRequestTimeout, fmt.Errorf("canceled while waiting for job %s", rec.id))
		return
	}
	writeJSON(w, http.StatusOK, rec.status(true))
}

// awaitTerminal blocks until the job finishes or ctx is canceled,
// reporting which (true = finished).
func (rec *job) awaitTerminal(ctx context.Context) bool {
	stop := context.AfterFunc(ctx, func() {
		rec.mu.Lock()
		rec.cond.Broadcast()
		rec.mu.Unlock()
	})
	defer stop()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for !terminal(rec.state) && ctx.Err() == nil {
		rec.cond.Wait()
	}
	return terminal(rec.state)
}

// handleList is GET /jobs: every registered job in submission order,
// without result payloads.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		recs = append(recs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(recs))
	for i, rec := range recs {
		out[i] = rec.status(false)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{out})
}

// handleStatus is GET /jobs/{id}: full status including Results once
// done. A finished job's Results bytes are served verbatim from the
// cache, so every read is byte-identical to the first.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, rec.status(true))
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleHealthz is GET /healthz: 200 with a small status document while
// serving, 503 once draining — the conventional readiness contract.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	registered := len(s.jobs)
	queued := len(s.queue)
	s.mu.Unlock()
	body := struct {
		Status     string  `json:"status"`
		UptimeSec  float64 `json:"uptime_seconds"`
		Registered int     `json:"jobs_registered"`
		Queued     int     `json:"jobs_queued"`
		Workers    int     `json:"workers"`
	}{"ok", time.Since(s.start).Seconds(), registered, queued, s.opts.Workers}
	code := http.StatusOK
	if draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
