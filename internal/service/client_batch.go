package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// NewPooledClient returns a Client tuned for high-throughput batch
// traffic: a dedicated transport whose per-host connection pool is deep
// enough that concurrent batches and their NDJSON streams ride warm
// keep-alive connections instead of paying a dial per request. conns
// bounds the idle pool (<=0 = 64). The returned client is a plain Client —
// set Retries as usual.
func NewPooledClient(baseURL string, conns int) *Client {
	if conns <= 0 {
		conns = 64
	}
	return &Client{
		BaseURL: baseURL,
		HTTPClient: &http.Client{
			Timeout: 5 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		Retries: 2,
	}
}

// EvaluateBatch posts N evaluations as one pipelined request and streams
// the per-item results, invoking onResult (nil is fine) for each item line
// exactly once — in item order — across however many connections the
// stream takes. Matching is by the server's echoed index and opaque item
// ID, verified against the submitted items.
//
// A batch stream severed mid-flight is not a failure of the evaluations —
// results are deterministic and cached server side, so EvaluateBatch
// re-posts the same batch under the client's retry policy and deduplicates
// replayed lines by Seq, exactly like the job watch stream's reconnects.
func (c *Client) EvaluateBatch(ctx context.Context, req BatchRequest, onResult func(BatchResult)) (BatchSummary, error) {
	if len(req.Items) == 0 {
		return BatchSummary{}, errors.New("hmemd: empty batch")
	}
	body, err := json.Marshal(req)
	if err != nil {
		return BatchSummary{}, fmt.Errorf("hmemd: encoding batch: %w", err)
	}
	var sum BatchSummary
	err = readStream(ctx, c, http.MethodPost, "/v1/batch", body, "batch results",
		func(ev *BatchResult) (int, bool) { return ev.Seq, ev.Done != nil },
		func(ev BatchResult) error {
			if ev.Done != nil {
				sum = *ev.Done
				return nil
			}
			// Opaque request matching: the server echoes each item's index
			// and ID; a mismatch means the stream is answering a different
			// batch.
			if ev.Index < 0 || ev.Index >= len(req.Items) || ev.ID != req.Items[ev.Index].ID {
				return fmt.Errorf(
					"hmemd: batch stream mismatch: seq %d carries index %d id %q", ev.Seq, ev.Index, ev.ID)
			}
			if onResult != nil {
				onResult(ev)
			}
			return nil
		})
	return sum, err
}

// CollectBatch is EvaluateBatch gathering the item lines into a slice, in
// item order.
func (c *Client) CollectBatch(ctx context.Context, req BatchRequest) ([]BatchResult, BatchSummary, error) {
	out := make([]BatchResult, 0, len(req.Items))
	sum, err := c.EvaluateBatch(ctx, req, func(r BatchResult) { out = append(out, r) })
	if err != nil {
		return nil, BatchSummary{}, err
	}
	return out, sum, nil
}
