package service

// POST /v1/batch — the high-throughput request path — and the evaluation
// executor behind every evaluation endpoint. One batch request carries N
// evaluate/compare items; results stream back as NDJSON, one seq-tagged
// line per item in item order plus a terminal summary line, so a client
// pipelines N evaluations over a single connection instead of paying N
// round trips. /v1/evaluate and /v1/compare are one-item runs of the same
// executor. Server side, items that share a workload trace but differ in
// policy share one trace recording: each engine records a workload's trace
// once and every policy's simulation replays it. A run is priced into the
// admission controller as the sum of its distinct fresh result keys, one
// options-scaled unit each; duplicates within the run and already-cached
// keys are free. Item failures are isolated: an item's error rides its own
// result line while the rest of the batch completes.
//
// The stream replays identically on reconnect (results are cached and
// emission order is item order), so the client's seq-dedup reconnect
// machinery — the same scheme the job watch stream uses — resumes a
// severed batch with no lost or duplicated items.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"hmem"
	"hmem/internal/exec"
)

// maxBatchItems bounds one batch request. The body limit bounds it too;
// this makes the contract explicit and keeps the per-item bookkeeping
// slices small.
const maxBatchItems = 4096

// BatchItem is one evaluation inside a batch request: an evaluate item
// (Policy set) or a compare item (Policies set) — exactly one of the two.
// ID is an opaque client token echoed back on the item's result line so
// pipelined callers can match responses without positional bookkeeping.
type BatchItem struct {
	ID       string            `json:"id,omitempty"`
	Workload string            `json:"workload"`
	Policy   hmem.PolicyName   `json:"policy,omitempty"`
	Policies []hmem.PolicyName `json:"policies,omitempty"`
	Options  *OptionsPatch     `json:"options,omitempty"`
}

// policySet returns the item's policies, evaluate and compare alike.
func (it *BatchItem) policySet() []hmem.PolicyName {
	if len(it.Policies) > 0 {
		return it.Policies
	}
	return []hmem.PolicyName{it.Policy}
}

// validate checks the item's structural invariants and target names.
func (it *BatchItem) validate() error {
	if it.Policy != "" && len(it.Policies) > 0 {
		return errors.New("set policy or policies, not both")
	}
	if it.Policy == "" && len(it.Policies) == 0 {
		return errors.New("one of policy or policies is required")
	}
	return validateTarget(it.Workload, it.policySet()...)
}

// BatchRequest asks for N evaluations in one round trip.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchResult is one NDJSON line of the batch response stream: a per-item
// result (Result for evaluate items, Results for compare items, Error when
// the item failed), or the terminal summary line (Done non-nil). Seq is
// index+1 for item lines and items+1 for the terminal line — the dedup
// token the client's reconnect machinery keys on. Result payloads are
// raw JSON: the bytes are exactly an in-process engine's result for the
// item, marshalled, which the differential test pins.
type BatchResult struct {
	Seq     int             `json:"seq"`
	Index   int             `json:"index"`
	ID      string          `json:"id,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Results json.RawMessage `json:"results,omitempty"`
	Error   string          `json:"error,omitempty"`
	Done    *BatchSummary   `json:"done,omitempty"`
}

// Evaluation decodes an evaluate item's result payload.
func (r *BatchResult) Evaluation() (hmem.Result, error) {
	var out hmem.Result
	if err := json.Unmarshal(r.Result, &out); err != nil {
		return hmem.Result{}, fmt.Errorf("hmemd: decoding batch result: %w", err)
	}
	return out, nil
}

// Comparisons decodes a compare item's result payload.
func (r *BatchResult) Comparisons() ([]hmem.Result, error) {
	var out []hmem.Result
	if err := json.Unmarshal(r.Results, &out); err != nil {
		return nil, fmt.Errorf("hmemd: decoding batch results: %w", err)
	}
	return out, nil
}

// BatchSummary is the stream's terminal line.
type BatchSummary struct {
	Items  int `json:"items"`
	Errors int `json:"errors"`
}

// decodeBatchRequest parses and validates a batch request body. Standalone
// (rather than inline in the handler) so FuzzBatchRequest can drive the
// exact production decode path on raw bytes.
func decodeBatchRequest(body []byte) (*BatchRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return nil, errors.New("invalid request body: trailing data")
	}
	if len(req.Items) == 0 {
		return nil, errors.New("items must be non-empty")
	}
	if len(req.Items) > maxBatchItems {
		return nil, fmt.Errorf("batch has %d items; the limit is %d", len(req.Items), maxBatchItems)
	}
	for i := range req.Items {
		if err := req.Items[i].validate(); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return &req, nil
}

// encodeBatchLine renders one NDJSON frame of the batch stream.
func encodeBatchLine(res BatchResult) ([]byte, error) {
	buf, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// decodeBatchLine parses one NDJSON frame; the trailing newline is
// optional. Unknown fields are rejected so the framing round trip
// (FuzzBatchFrame) catches client/server drift.
func decodeBatchLine(line []byte) (BatchResult, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var res BatchResult
	if err := dec.Decode(&res); err != nil {
		return BatchResult{}, err
	}
	return res, nil
}

// itemOutcome is one executed item: its JSON payload (an evaluate item's
// result, or a compare item's result array) or its error.
type itemOutcome struct {
	payload json.RawMessage
	err     error
}

// batchResult renders item index's outcome as its stream line.
func batchResult(it BatchItem, index int, out itemOutcome) BatchResult {
	res := BatchResult{Seq: index + 1, Index: index, ID: it.ID}
	switch {
	case out.err != nil:
		res.Error = out.err.Error()
	case len(it.Policies) > 0:
		res.Results = out.payload
	default:
		res.Result = out.payload
	}
	return res
}

// evaluationRun is one admitted run of the executor. done[i] closes once
// outcomes[i] is recorded; settled closes after every item has finished and
// the run's admission cost and engines have been released.
type evaluationRun struct {
	outcomes []itemOutcome
	done     []chan struct{}
	settled  chan struct{}
}

// evaluate is hmemd's one evaluation path. It resolves and holds every
// item's engine, prices the distinct fresh result keys and admits that
// cost, then runs the items in the background under exec.Settle with
// per-item error isolation, and releases the cost and engines once the
// work has settled — not when the client goes away, since the
// simulations it started keep running. On false the response is already
// written: a 400 for an item whose options do not resolve (itemErr labels
// the error), or an admission refusal.
func (s *Service) evaluate(ctx context.Context, w http.ResponseWriter, items []BatchItem, itemErr func(i int, err error) error) (*evaluationRun, bool) {
	engines := make([]*engineEntry, 0, len(items))
	releaseEngines := func() {
		for _, en := range engines {
			s.releaseEngine(en)
		}
	}
	for i := range items {
		en, err := s.acquireEngine(items[i].Options)
		if err != nil {
			releaseEngines()
			writeError(w, http.StatusBadRequest, itemErr(i, err))
			return nil, false
		}
		engines = append(engines, en)
	}

	// Each distinct result key that is neither cached nor in flight costs
	// one options-scaled unit.
	var cost float64
	seen := make(map[string]bool)
	for i := range items {
		it := &items[i]
		en := engines[i]
		for _, p := range it.policySet() {
			key := resultKey(en.digest, it.Workload, p)
			if seen[key] || s.results.Known(key) {
				continue
			}
			seen[key] = true
			cost += s.costUnit(en.e)
		}
	}
	// In the shedding state all fresh work is refused with 503 — cached
	// answers still flow; under that, the budget sheds the excess with 429.
	// Both carry a drain-rate-derived Retry-After.
	if cost > 0 && s.adm.healthState() == healthShedding {
		releaseEngines()
		secs := retryAfterSeconds(s.adm.inflight()-s.adm.budget+cost, s.adm.drain.rate())
		writeRetryableError(w, http.StatusServiceUnavailable, secs, errors.New("server is shedding load"))
		return nil, false
	}
	if ok, secs := s.adm.admit(cost); !ok {
		releaseEngines()
		writeRetryableError(w, http.StatusTooManyRequests, secs,
			errors.New("admission: in-flight cost over budget; retry later"))
		return nil, false
	}

	run := &evaluationRun{
		outcomes: make([]itemOutcome, len(items)),
		done:     make([]chan struct{}, len(items)),
		settled:  make(chan struct{}),
	}
	for i := range run.done {
		run.done[i] = make(chan struct{})
	}
	go func() {
		defer close(run.settled)
		errs := exec.Settle(ctx, s.resolvedDefaults.Parallel, len(items), func(i int) error {
			run.outcomes[i] = s.runItem(ctx, items[i], engines[i])
			close(run.done[i])
			return nil
		})
		// Tasks that never recorded an outcome — skipped by cancellation or
		// killed by a panic — get their error here.
		for i, err := range errs {
			if err != nil {
				run.outcomes[i] = itemOutcome{err: err}
				close(run.done[i])
			}
		}
		s.adm.release(cost)
		releaseEngines()
	}()
	return run, true
}

// runItem executes one item through the shared result cache. Errors are the
// item's, never the run's.
func (s *Service) runItem(ctx context.Context, it BatchItem, en *engineEntry) itemOutcome {
	e, digest := en.e, en.digest
	if len(it.Policies) == 0 {
		raw, err := s.result(ctx, e, digest, it.Workload, it.Policy)
		return itemOutcome{payload: raw, err: err}
	}
	raws, err := exec.Map(ctx, e.Options().Parallel, len(it.Policies), func(j int) (json.RawMessage, error) {
		return s.result(ctx, e, digest, it.Workload, it.Policies[j])
	})
	if err != nil {
		return itemOutcome{err: err}
	}
	raw, err := json.Marshal(raws)
	return itemOutcome{payload: raw, err: err}
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfClosing(w) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %v", err))
		return
	}
	req, err := decodeBatchRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items := req.Items
	ctx := r.Context()
	run, ok := s.evaluate(ctx, w, items, func(i int, err error) error { return fmt.Errorf("item %d: %w", i, err) })
	if !ok {
		return
	}
	s.met.batchRequests.Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Items execute in parallel; each line streams as soon as its item — and
	// every earlier one — has settled, so the stream is in item order but the
	// work is not serialized.
	errCount := 0
	for i := range items {
		select {
		case <-run.done[i]:
		case <-ctx.Done():
			return // client gone; any status we write is unread
		}
		res := batchResult(items[i], i, run.outcomes[i])
		line, err := encodeBatchLine(res)
		if err != nil {
			res = batchResult(items[i], i, itemOutcome{err: err})
			line, _ = encodeBatchLine(res)
		}
		outcome := "ok"
		if res.Error != "" {
			errCount++
			outcome = "error"
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		// Flush only when the stream is about to idle: if the next line (or
		// the terminal summary) follows immediately, it carries these bytes
		// and the per-line syscall is saved. Fresh, slow items still flush
		// every line, so streaming latency is unchanged where it matters.
		if flusher != nil && i+1 < len(items) {
			select {
			case <-run.done[i+1]:
			default:
				flusher.Flush()
			}
		}
		s.met.batchItems.With(outcome).Inc()
	}
	// The summary waits for the run's releases, so a client that has read
	// the whole stream sees its cost already returned to the budget.
	select {
	case <-run.settled:
	case <-ctx.Done():
		return
	}
	line, err := encodeBatchLine(BatchResult{
		Seq:  len(items) + 1,
		Done: &BatchSummary{Items: len(items), Errors: errCount},
	})
	if err != nil {
		return
	}
	_, _ = w.Write(line)
	if flusher != nil {
		flusher.Flush()
	}
}
