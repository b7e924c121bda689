package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hmem"
	"hmem/internal/cluster"
	"hmem/internal/obs"
	"hmem/internal/report"
)

// Client is a typed hmemd client. The zero Retries/Backoff give one attempt;
// set Retries for bounded retry-with-backoff on idempotent calls (every GET,
// Evaluate, and Compare — evaluations are deterministic and cached server
// side, so re-asking is safe; SubmitJob is NOT retried because a lost
// response would double-enqueue the run).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 5-minute timeout (simulations
	// are slow; the per-call ctx is the sharper knife).
	HTTPClient *http.Client
	// Retries is the number of ADDITIONAL attempts for idempotent calls on
	// transport errors or 5xx/429 responses.
	Retries int
	// Backoff is the initial retry delay, doubled per attempt (default
	// 100ms).
	Backoff time.Duration
	// Rand supplies the random bits for retry-backoff jitter: it must return
	// a uniform value in [0, n). Nil uses math/rand/v2's process-global
	// source — the right default for a fleet of independent clients, whose
	// jitter exists to decorrelate them. Set a seeded source (e.g. a locked
	// xrand stream) to make retry timing a pure function of the seed; the
	// load harness does this so soak runs replay byte for byte.
	Rand func(n uint64) uint64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

func (c *Client) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 100 * time.Millisecond
}

// randN draws the jitter bits from the configured source (seedable) or the
// process-global one.
func (c *Client) randN(n uint64) uint64 {
	if c.Rand != nil {
		return c.Rand(n)
	}
	return rand.Uint64N(n)
}

// jitteredWait computes one retry's wait: the current backoff delay jittered
// uniformly over [delay/2, delay], raised to the server's Retry-After hint
// when it asks for longer. Split out so the jitter math is testable as a
// pure function of the Rand source.
func (c *Client) jitteredWait(delay time.Duration, err error) time.Duration {
	wait := delay/2 + time.Duration(c.randN(uint64(delay/2)+1))
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > wait {
		wait = apiErr.RetryAfter
	}
	return wait
}

// APIError is a non-2xx response with the server's error message.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent). The
	// retry loop waits at least this long before the next attempt.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("hmemd: HTTP %d: %s", e.StatusCode, e.Message)
}

// retryable reports whether a fresh attempt could succeed: transport errors,
// 5xx (transient server trouble), and 429 (queue pressure).
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500 || apiErr.StatusCode == http.StatusTooManyRequests
	}
	return true // transport-level failure
}

// do performs one round trip (see send) and decodes the 2xx JSON body into
// out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("hmemd: encoding request: %w", err)
		}
	}
	resp, err := c.send(ctx, method, path, body, false)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("hmemd: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// send performs one exchange and returns the 2xx response for the caller to
// read and close. A non-2xx status comes back as *APIError. stream lifts the
// HTTP client's overall timeout for responses that can outlive it (job
// watches, batches), leaving ctx as the only bound.
func (c *Client) send(ctx context.Context, method, path string, body []byte, stream bool) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.BaseURL, "/")+path, rd)
	if err != nil {
		return nil, fmt.Errorf("hmemd: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.httpClient()
	if stream {
		unbounded := *hc
		unbounded.Timeout = 0
		hc = &unbounded
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("hmemd: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return resp, nil
	}
	defer resp.Body.Close()
	var eb errorBody
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	return nil, &APIError{
		StatusCode: resp.StatusCode,
		Message:    msg,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
}

// parseRetryAfter reads the header's delay-seconds form (the only form this
// server emits); the HTTP-date form and garbage parse to zero.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// doIdempotent is do under the retry policy.
func (c *Client) doIdempotent(ctx context.Context, method, path string, in, out any) error {
	return c.retry(ctx, func() error { return c.do(ctx, method, path, in, out) })
}

// retry is the client's one retry policy: it runs attempt until it
// succeeds, fails non-retryably, or has been retried c.Retries times. The
// wait between attempts doubles from c.Backoff and is jittered (see
// jitteredWait) so a fleet of clients bounced by the same outage doesn't
// reconverge in lockstep; a server Retry-After hint raises the wait when it
// asks for longer. Once ctx is done the loop ends with ctx's error.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	delay := c.backoff()
	for n := 0; ; n++ {
		err := attempt()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if n >= c.Retries || !retryable(err) {
			return err
		}
		t := time.NewTimer(c.jitteredWait(delay, err))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		delay *= 2
	}
}

// Workloads lists the evaluable workload and benchmark names.
func (c *Client) Workloads(ctx context.Context) (workloads, benchmarks []string, err error) {
	var out struct {
		Workloads  []string `json:"workloads"`
		Benchmarks []string `json:"benchmarks"`
	}
	if err := c.doIdempotent(ctx, http.MethodGet, "/v1/workloads", nil, &out); err != nil {
		return nil, nil, err
	}
	return out.Workloads, out.Benchmarks, nil
}

// Policies lists the placement policy names.
func (c *Client) Policies(ctx context.Context) ([]hmem.PolicyName, error) {
	var out struct {
		Policies []hmem.PolicyName `json:"policies"`
	}
	if err := c.doIdempotent(ctx, http.MethodGet, "/v1/policies", nil, &out); err != nil {
		return nil, err
	}
	return out.Policies, nil
}

// Experiments lists the runnable experiment ids for SubmitJob.
func (c *Client) Experiments(ctx context.Context) ([]string, error) {
	var out struct {
		Experiments []string `json:"experiments"`
	}
	if err := c.doIdempotent(ctx, http.MethodGet, "/v1/experiments", nil, &out); err != nil {
		return nil, err
	}
	return out.Experiments, nil
}

// Topologies lists the memory topologies the server can simulate.
func (c *Client) Topologies(ctx context.Context) ([]hmem.TopologySummary, error) {
	var out struct {
		Topologies []hmem.TopologySummary `json:"topologies"`
	}
	if err := c.doIdempotent(ctx, http.MethodGet, "/v1/topologies", nil, &out); err != nil {
		return nil, err
	}
	return out.Topologies, nil
}

// Evaluate runs one workload × policy on the server. Idempotent (the server
// caches by request shape), so it retries on transient failures.
func (c *Client) Evaluate(ctx context.Context, req EvaluateRequest) (hmem.Result, error) {
	var out hmem.Result
	if err := c.doIdempotent(ctx, http.MethodPost, "/v1/evaluate", req, &out); err != nil {
		return hmem.Result{}, err
	}
	return out, nil
}

// Compare runs one workload under several policies.
func (c *Client) Compare(ctx context.Context, req CompareRequest) ([]hmem.Result, error) {
	var out struct {
		Results []hmem.Result `json:"results"`
	}
	if err := c.doIdempotent(ctx, http.MethodPost, "/v1/compare", req, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// SubmitJob enqueues an experiment run. Without an IdempotencyKey it is NOT
// retried — a response lost after the server enqueued would double-submit.
// With a key set the server deduplicates resubmissions, so transient
// failures retry like any idempotent call.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (JobStatus, error) {
	var out JobStatus
	call := c.do
	if req.IdempotencyKey != "" {
		call = c.doIdempotent
	}
	if err := call(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return JobStatus{}, err
	}
	return out, nil
}

// Job fetches one job's status (including the result table once done).
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	if err := c.doIdempotent(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return JobStatus{}, err
	}
	return out, nil
}

// Jobs lists jobs the daemon knows about — queued, running, and terminal
// (including journal-restored ones), newest first. limit bounds the page
// (0 = everything) and offset skips that many newest jobs, so a poller can
// page through a long-lived daemon's history without O(total-jobs) GETs.
// total is the job count before paging.
func (c *Client) Jobs(ctx context.Context, limit, offset int) (jobs []JobStatus, total int, err error) {
	var out struct {
		Jobs  []JobStatus `json:"jobs"`
		Total int         `json:"total"`
	}
	path := "/v1/jobs"
	if limit > 0 || offset > 0 {
		path += fmt.Sprintf("?limit=%d&offset=%d", limit, offset)
	}
	if err := c.doIdempotent(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, 0, err
	}
	return out.Jobs, out.Total, nil
}

// ClusterRegister joins (or heartbeats) this process as a worker a
// coordinator places shards on. The returned TTL is how long the
// registration stays live without another heartbeat.
func (c *Client) ClusterRegister(ctx context.Context, req cluster.RegisterRequest) (ttl time.Duration, err error) {
	var out struct {
		TTLSeconds float64 `json:"ttl_seconds"`
	}
	// Registration is idempotent by design (a re-send is a heartbeat), so
	// the retry loop is safe and desirable across coordinator restarts.
	if err := c.doIdempotent(ctx, http.MethodPost, "/v1/cluster/register", req, &out); err != nil {
		return 0, err
	}
	return time.Duration(out.TTLSeconds * float64(time.Second)), nil
}

// ClusterDeregister removes a worker from placement immediately (clean
// drain; otherwise it expires once silent past the TTL).
func (c *Client) ClusterDeregister(ctx context.Context, id string) error {
	return c.doIdempotent(ctx, http.MethodPost, "/v1/cluster/deregister",
		map[string]string{"id": id}, &struct {
			Removed bool `json:"removed"`
		}{})
}

// ClusterWorkers lists the coordinator's live workers.
func (c *Client) ClusterWorkers(ctx context.Context) ([]cluster.Worker, error) {
	var out struct {
		Workers []cluster.Worker `json:"workers"`
	}
	if err := c.doIdempotent(ctx, http.MethodGet, "/v1/cluster/workers", nil, &out); err != nil {
		return nil, err
	}
	return out.Workers, nil
}

// JobTrace fetches the job's tracing spans still held in the daemon's ring
// buffer. Spans for an old job may have been overwritten; that returns an
// empty slice, not an error.
func (c *Client) JobTrace(ctx context.Context, id string) ([]obs.SpanData, error) {
	var out struct {
		Spans []obs.SpanData `json:"spans"`
	}
	if err := c.doIdempotent(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &out); err != nil {
		return nil, err
	}
	return out.Spans, nil
}

// WaitJob streams the job's NDJSON progress events, invoking onEvent per
// transition or progress heartbeat (nil is fine), until the job reaches a
// terminal state; it then fetches and returns the final status.
//
// A watch stream severed mid-flight is not a failure of the job, just of
// the pipe: the server replays every transition from the start, so
// readStream reconnects and onEvent sees each transition exactly once.
// Progress heartbeats reuse their transition's seq and are always
// forwarded — they are point-in-time telemetry, not history.
func (c *Client) WaitJob(ctx context.Context, id string, onEvent func(JobEvent)) (JobStatus, error) {
	err := readStream(ctx, c, http.MethodGet, "/v1/jobs/"+id+"?watch=1", nil, "job "+id+" events",
		func(ev *JobEvent) (int, bool) {
			if ev.Progress != nil {
				return 0, false
			}
			return ev.Seq, terminal(ev.State)
		},
		func(ev JobEvent) error {
			if onEvent != nil {
				onEvent(ev)
			}
			return nil
		})
	if err != nil {
		return JobStatus{}, err
	}
	// Terminal state observed; the final status (with result table) is one
	// plain GET away.
	return c.Job(ctx, id)
}

// readStream is the client's one NDJSON stream reader, behind WaitJob and
// EvaluateBatch. Under the retry policy it sends the request, decodes one T
// per line and hands each to onLine until the terminal line has been
// handled. A stream severed mid-flight — the connection dropped, a proxy
// gave up, a torn line, EOF before the terminal line — is retried like any
// idempotent call: the server replays the stream from the start, and lines
// whose seq was already handled are dropped, so onLine sees each line
// exactly once however many connections it took. classify reports a line's
// seq (0 for lines that are never deduplicated) and whether it is
// terminal; an onLine error fails the attempt.
func readStream[T any](ctx context.Context, c *Client, method, path string, body []byte, what string,
	classify func(*T) (seq int, last bool), onLine func(T) error) error {
	handled := 0
	return c.retry(ctx, func() error {
		resp, err := c.send(ctx, method, path, body, true)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var line T
			if err := dec.Decode(&line); err != nil {
				return fmt.Errorf("hmemd: reading %s: %w", what, err)
			}
			seq, last := classify(&line)
			if seq == 0 || seq > handled {
				if err := onLine(line); err != nil {
					return err
				}
				handled = max(handled, seq)
			}
			if last {
				return nil
			}
		}
	})
}

// RunJob is SubmitJob + WaitJob + result extraction in one call.
func (c *Client) RunJob(ctx context.Context, req JobRequest, onEvent func(JobEvent)) (*report.Table, error) {
	st, err := c.SubmitJob(ctx, req)
	if err != nil {
		return nil, err
	}
	final, err := c.WaitJob(ctx, st.ID, onEvent)
	if err != nil {
		return nil, err
	}
	if final.State != JobDone {
		return nil, fmt.Errorf("hmemd: job %s %s: %s", final.ID, final.State, final.Error)
	}
	return final.Result, nil
}

// Healthz reports whether the server answers its health endpoint with 200.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
