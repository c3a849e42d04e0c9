package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinyBody is a small but real job: a full 3D machine, short windows,
// sampling fast enough to produce a healthy row count.
func tinyBody(seed uint64) string {
	return fmt.Sprintf(`{
		"scheme": "dnuca3d", "benchmark": "mgrid",
		"warm_cycles": 1000, "measure_cycles": 6000,
		"sample_interval": 500, "seed": %d
	}`, seed)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSubmitPollResult walks the basic service path: submit, poll status
// to completion, check fraction and Results.
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	resp, body := post(t, ts.URL+"/jobs", tinyBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202: %s", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("X-Cache = %q, want miss", xc)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit status = %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", st.ID, resp.StatusCode)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Fraction != 1 {
		t.Fatalf("done job fraction = %v, want 1", st.Fraction)
	}
	if len(st.Results) == 0 {
		t.Fatal("done job has no results")
	}
	var res struct {
		IPC      float64 `json:"IPC"`
		L2Hits   uint64  `json:"L2Hits"`
		Cycles   uint64  `json:"Cycles"`
		Scheme   string  `json:"Scheme"`
		BenchRun string  `json:"Benchmark"`
	}
	if err := json.Unmarshal(st.Results, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.L2Hits == 0 {
		t.Fatalf("results look empty: %s", st.Results)
	}
	if st.Rows == 0 {
		t.Fatal("no sampled rows recorded despite sample_interval")
	}
}

// TestCacheHitByteIdentical is the determinism ⇒ cacheability contract: a
// second identical submission answers 200 with X-Cache: hit and Results
// bytes identical to the first run's, without running anything.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	resp, body := post(t, ts.URL+"/jobs?wait=1", tinyBody(42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST ?wait=1 = %d: %s", resp.StatusCode, body)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.State != StateDone {
		t.Fatalf("first run state = %q: %s", first.State, first.Error)
	}
	submitted := s.m.submitted.Load()

	resp, body = post(t, ts.URL+"/jobs", tinyBody(42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200", resp.StatusCode)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("X-Cache = %q, want hit", xc)
	}
	var second JobStatus
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("cache hit returned job %s, first run was %s", second.ID, first.ID)
	}
	if !bytes.Equal(second.Results, first.Results) {
		t.Fatalf("cached Results not byte-identical:\nfirst:  %s\nsecond: %s", first.Results, second.Results)
	}
	if got := s.m.submitted.Load(); got != submitted {
		t.Fatalf("cache hit enqueued a new job (submitted %d → %d)", submitted, got)
	}
	if s.m.cacheHits.Load() == 0 {
		t.Fatal("cache hit not counted")
	}

	// A different seed is a different identity: it must miss.
	resp, _ = post(t, ts.URL+"/jobs", tinyBody(43))
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("different seed X-Cache = %q, want miss", xc)
	}
}

// TestCoalesceInFlight pins duplicate-submission coalescing: with the
// single worker busy on a filler job, two identical submissions of a
// queued job map onto one registry entry and one execution.
func TestCoalesceInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	// Occupy the only worker so the next job stays queued.
	resp, _ := post(t, ts.URL+"/jobs", tinyBody(100))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler submit = %d", resp.StatusCode)
	}

	resp, body := post(t, ts.URL+"/jobs", tinyBody(200))
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("first submit X-Cache = %q, want miss", xc)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	resp, body = post(t, ts.URL+"/jobs", tinyBody(200))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate submit = %d, want 202", resp.StatusCode)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "coalesced" {
		t.Fatalf("duplicate submit X-Cache = %q, want coalesced", xc)
	}
	var dup JobStatus
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate got job %s, original %s", dup.ID, first.ID)
	}
	if dup.Submits != 2 {
		t.Fatalf("submits = %d, want 2", dup.Submits)
	}
	if s.m.coalesced.Load() != 1 {
		t.Fatalf("coalesced counter = %d, want 1", s.m.coalesced.Load())
	}

	// Both jobs drain; the registry holds exactly two entries.
	resp, body = post(t, ts.URL+"/jobs?wait=1", tinyBody(200))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait on coalesced job = %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, ts.URL+"/jobs")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("registry has %d jobs, want 2 (filler + coalesced)", len(list.Jobs))
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes an SSE body until the stream closes, returning every
// frame.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestStreamLiveAndReplay covers both SSE paths: a subscriber connected
// while the job runs receives header, every row, and the done event; a
// late subscriber gets a full replay. The rows must match the final
// status's row count — the stream drops nothing.
func TestStreamLiveAndReplay(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// A longer measurement so the stream has something to follow live.
	body := `{"scheme":"dnuca3d","benchmark":"swim","warm_cycles":2000,"measure_cycles":30000,"sample_interval":500,"seed":9}`
	resp, out := post(t, ts.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, out)
	}
	var st JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}

	streamResp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	events := readSSE(t, streamResp)
	checkStream(t, events)
	liveRows := countRows(events)

	// Late subscriber: the job is done; the whole series replays.
	streamResp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, streamResp)
	checkStream(t, replay)
	if replayRows := countRows(replay); replayRows != liveRows {
		t.Fatalf("replay has %d rows, live stream had %d", replayRows, liveRows)
	}

	// The final status agrees on the row count.
	_, out = get(t, ts.URL+"/jobs/"+st.ID)
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != liveRows {
		t.Fatalf("status rows_streamed = %d, stream delivered %d", st.Rows, liveRows)
	}
}

func countRows(events []sseEvent) int {
	n := 0
	for _, e := range events {
		if e.event == "row" {
			n++
		}
	}
	return n
}

// checkStream validates SSE framing: header first, then rows of matching
// width with strictly increasing cycles, then exactly one done event.
func checkStream(t *testing.T, events []sseEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty SSE stream")
	}
	if events[0].event != "header" {
		t.Fatalf("first event = %q, want header", events[0].event)
	}
	var header []string
	if err := json.Unmarshal([]byte(events[0].data), &header); err != nil {
		t.Fatal(err)
	}
	if len(header) == 0 || header[0] != "cycle" {
		t.Fatalf("header = %v", header)
	}
	last := events[len(events)-1]
	if last.event != "done" {
		t.Fatalf("last event = %q (%s), want done", last.event, last.data)
	}
	prevCycle := -1.0
	rows := 0
	for _, e := range events[1 : len(events)-1] {
		if e.event != "row" {
			t.Fatalf("unexpected event %q mid-stream", e.event)
		}
		var row []float64
		if err := json.Unmarshal([]byte(e.data), &row); err != nil {
			t.Fatal(err)
		}
		if len(row) != len(header) {
			t.Fatalf("row width %d, header width %d", len(row), len(header))
		}
		if row[0] <= prevCycle {
			t.Fatalf("cycles not increasing: %v after %v", row[0], prevCycle)
		}
		prevCycle = row[0]
		rows++
	}
	if rows == 0 {
		t.Fatal("stream carried no rows")
	}
	var done struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Rows != rows {
		t.Fatalf("done event says %d rows, stream carried %d", done.Rows, rows)
	}
}

// TestHealthzAndMetrics checks the observability endpoints' content.
func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var hz struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Workers != 1 {
		t.Fatalf("healthz body = %s", body)
	}

	if resp, body := post(t, ts.URL+"/jobs?wait=1", tinyBody(7)); resp.StatusCode != http.StatusOK {
		t.Fatalf("job = %d: %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"nimsim_jobs_submitted_total 1",
		"nimsim_jobs_completed_total 1",
		"nimsim_cache_hits_total 0",
		"nimsim_jobs_registered 1",
		"# TYPE nimsim_job_progress gauge",
		`counter="l2_hits"`,
		`counter="flit_hops"`,
		"nimsim_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Draining flips healthz to 503.
	s.Close()
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503: %s", resp.StatusCode, body)
	}
}

// TestQueueBackpressure: a full queue answers 503 instead of blocking or
// growing without bound.
func TestQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	// Jobs long enough that the single worker cannot drain the queue
	// while the submissions arrive. Distinct seeds prevent coalescing.
	slow := func(seed uint64) string {
		return fmt.Sprintf(`{"scheme":"dnuca3d","benchmark":"mgrid","warm_cycles":0,"measure_cycles":300000,"no_samples":true,"seed":%d}`, seed)
	}
	// Worker takes the first job; the second fills the 1-deep queue; a
	// later one must bounce.
	post(t, ts.URL+"/jobs", slow(1))
	post(t, ts.URL+"/jobs", slow(2))
	rejected := false
	for seed := uint64(3); seed < 8; seed++ {
		resp, _ := post(t, ts.URL+"/jobs", slow(seed))
		if resp.StatusCode == http.StatusServiceUnavailable {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("no submission was rejected despite a saturated queue")
	}
	if s.m.rejected.Load() == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// TestBadRequests: malformed JSON, unknown scheme, unknown benchmark,
// unknown job id.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	if resp, _ := post(t, ts.URL+"/jobs", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/jobs", `{"scheme":"nosuch"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scheme = %d, want 400", resp.StatusCode)
	}
	// An unknown benchmark passes validation (the runner rejects it at
	// execution), so the job fails rather than the submit.
	resp, body := post(t, ts.URL+"/jobs?wait=1", `{"scheme":"dnuca3d","benchmark":"nosuch","warm_cycles":0,"measure_cycles":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown benchmark submit = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Errorf("unknown benchmark job state = %q (%q), want failed", st.State, st.Error)
	}
	if resp, _ := get(t, ts.URL+"/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/jobs/deadbeef/stream"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream = %d, want 404", resp.StatusCode)
	}
}

// TestOversizedBody: a submission larger than maxRequestBytes is refused
// with 413 and registers nothing.
func TestOversizedBody(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	body := `{"scheme":"dnuca3d","benchmark":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, out := post(t, ts.URL+"/jobs", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413: %.200s", resp.StatusCode, out)
	}
	s.mu.Lock()
	registered := len(s.jobs)
	s.mu.Unlock()
	if registered != 0 || s.m.submitted.Load() != 0 {
		t.Fatalf("oversized body registered %d jobs (%d submitted), want none",
			registered, s.m.submitted.Load())
	}
}
