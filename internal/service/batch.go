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
// admission controller as the sum of its distinct fresh evaluations, one
// options-scaled unit each; duplicates within the run and evaluations whose
// simulations are already memoized are free. Item failures are isolated: an
// item's error rides its own result line while the rest of the batch
// completes.
//
// The stream replays identically on reconnect (results are deterministic
// and emission order is item order), so the client's seq-dedup reconnect
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

// execute is hmemd's one engine-and-cost lifecycle, shared by requests and
// jobs. It resolves and holds one engine per options patch, prices the work,
// and hands the cost to admit, the caller's one admission decision. Admitted
// work runs in the background under exec.Settle, work(i, engine) per item
// with per-item error isolation; the cost and engines are released once the
// work has settled — not when the caller goes away, since the work it
// started keeps running. When a patch's engine does not resolve (bad names
// it) or admit refuses, nothing is held and run is nil.
func (s *Service) execute(ctx context.Context, patches []*OptionsPatch, price func([]*engineEntry) float64,
	admit func(cost float64) bool, work func(i int, en *engineEntry) itemOutcome) (run *evaluationRun, bad int, err error) {
	engines := make([]*engineEntry, 0, len(patches))
	releaseEngines := func() {
		for _, en := range engines {
			s.releaseEngine(en)
		}
	}
	for i, p := range patches {
		en, err := s.acquireEngine(p)
		if err != nil {
			releaseEngines()
			return nil, i, err
		}
		engines = append(engines, en)
	}
	cost := price(engines)
	if !admit(cost) {
		releaseEngines()
		return nil, 0, nil
	}

	run = &evaluationRun{
		outcomes: make([]itemOutcome, len(patches)),
		done:     make([]chan struct{}, len(patches)),
		settled:  make(chan struct{}),
	}
	for i := range run.done {
		run.done[i] = make(chan struct{})
	}
	go func() {
		defer close(run.settled)
		errs := exec.Settle(ctx, s.resolvedDefaults.Parallel, len(patches), func(i int) error {
			run.outcomes[i] = work(i, engines[i])
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
	return run, 0, nil
}

// evaluate runs evaluate and compare items through execute. Each distinct
// evaluation (engine, workload, policy) whose blocks are neither finished
// nor in flight in its engine's memo costs one options-scaled unit;
// duplicates within the run and known evaluations are free. On false the
// response is already written: a 400 for an item whose options do not
// resolve (itemErr labels the error), or an admission refusal.
func (s *Service) evaluate(ctx context.Context, w http.ResponseWriter, items []BatchItem, itemErr func(i int, err error) error) (*evaluationRun, bool) {
	patches := make([]*OptionsPatch, len(items))
	for i := range items {
		patches[i] = items[i].Options
	}
	price := func(engines []*engineEntry) float64 {
		type evaluation struct {
			en       *engineEntry
			workload string
			policy   hmem.PolicyName
		}
		var cost float64
		seen := make(map[evaluation]bool)
		for i := range items {
			for _, p := range items[i].policySet() {
				key := evaluation{engines[i], items[i].Workload, p}
				if seen[key] || engines[i].runner.Known(key.workload, p) {
					continue
				}
				seen[key] = true
				cost += s.costUnit(engines[i].runner)
			}
		}
		return cost
	}
	// In the shedding state all fresh work is refused with 503 — cached
	// answers still flow; under that, the budget sheds the excess with 429.
	// Both carry a drain-rate-derived Retry-After.
	admit := func(cost float64) bool {
		if cost > 0 && s.adm.healthState() == healthShedding {
			secs := retryAfterSeconds(s.adm.inflight()-s.adm.budget+cost, s.adm.drain.rate())
			writeRetryableError(w, http.StatusServiceUnavailable, secs, errors.New("server is shedding load"))
			return false
		}
		ok, secs := s.adm.admit(cost)
		if !ok {
			writeRetryableError(w, http.StatusTooManyRequests, secs,
				errors.New("admission: in-flight cost over budget; retry later"))
		}
		return ok
	}
	run, bad, err := s.execute(ctx, patches, price, admit, func(i int, en *engineEntry) itemOutcome {
		return s.runItem(ctx, items[i], en)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, itemErr(bad, err))
	}
	return run, run != nil
}

// runItem answers one item from its engine's block memo, sets the
// answer's evaluation gauges and marshals it (a compare item's as an
// array). Errors are the item's, never the run's.
func (s *Service) runItem(ctx context.Context, it BatchItem, en *engineEntry) itemOutcome {
	var v any
	if len(it.Policies) == 0 {
		res, err := en.runner.Evaluate(ctx, it.Workload, it.Policy)
		if err != nil {
			return itemOutcome{err: err}
		}
		s.met.exportResult(&res)
		v = res
	} else {
		rs, err := en.runner.Compare(ctx, it.Workload, it.Policies)
		if err != nil {
			return itemOutcome{err: err}
		}
		for i := range rs {
			s.met.exportResult(&rs[i])
		}
		v = rs
	}
	raw, err := json.Marshal(v)
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

	// Items execute in parallel; each line is ready once its item — and
	// every earlier one — has settled, so the stream is in item order but
	// the work is not serialized. The summary waits for the run's releases,
	// so a client that has read the whole stream sees its cost already
	// returned to the budget.
	next, errCount := 0, 0
	writeNDJSON(ctx, w, func(buf []byte) ([]byte, <-chan struct{}) {
		for ; next < len(items); next++ {
			select {
			case <-run.done[next]:
			default:
				return buf, run.done[next]
			}
			res := batchResult(items[next], next, run.outcomes[next])
			line, err := encodeBatchLine(res)
			if err != nil {
				res = batchResult(items[next], next, itemOutcome{err: err})
				line, _ = encodeBatchLine(res)
			}
			outcome := "ok"
			if res.Error != "" {
				errCount++
				outcome = "error"
			}
			s.met.batchItems.With(outcome).Inc()
			buf = append(buf, line...)
		}
		select {
		case <-run.settled:
		default:
			return buf, run.settled
		}
		line, _ := encodeBatchLine(BatchResult{
			Seq:  len(items) + 1,
			Done: &BatchSummary{Items: len(items), Errors: errCount},
		})
		return append(buf, line...), nil
	})
}

// writeNDJSON is hmemd's one NDJSON stream writer, behind job watches and
// batches. Each round, next appends every line that is ready to buf and
// returns the channel that closes when more may be ready, or nil once it
// has appended the terminal line. The writer writes the round, flushes once
// before it blocks, and stops after the terminal line, on a failed write, or
// when the client goes away.
func writeNDJSON(ctx context.Context, w http.ResponseWriter, next func(buf []byte) ([]byte, <-chan struct{})) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var buf []byte
	for {
		var wait <-chan struct{}
		buf, wait = next(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if wait == nil {
			return
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return
		}
	}
}
