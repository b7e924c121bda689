package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HostFaults is a client-side, host-addressed fault transport: requests to a
// blocked host fail with a transport error (a network partition, as net/http
// sees one), requests to a slowed host wait out an injected delay first (a
// brownout), and everything else passes through. Unlike the Injector's
// request-indexed faults it is togglable at runtime, which is what cluster
// chaos tests need: cut a worker off or turn it into a straggler mid-run,
// watch the coordinator re-place or hedge its work and its breaker open,
// then heal the link.
//
// Wire it in as an http.RoundTripper (e.g. service.ClusterConfig.Transport).
// Safe for concurrent use.
type HostFaults struct {
	rt http.RoundTripper

	mu     sync.Mutex
	faults map[string]hostFault

	dropped, delayed atomic.Uint64
}

// hostFault is one host's injected behaviour: dropped outright, or delayed.
type hostFault struct {
	drop  bool
	delay time.Duration
}

// NewHostFaults wraps rt (nil = http.DefaultTransport) with no faults.
func NewHostFaults(rt http.RoundTripper) *HostFaults {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return &HostFaults{rt: rt, faults: make(map[string]hostFault)}
}

// Block cuts connectivity to the given hosts ("host:port" as it appears in
// request URLs) until Heal.
func (h *HostFaults) Block(hosts ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, host := range hosts {
		h.faults[host] = hostFault{drop: true}
	}
}

// SetDelay injects d of extra latency before every request to host until
// Heal. A non-positive d heals the host.
func (h *HostFaults) SetDelay(host string, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d <= 0 {
		delete(h.faults, host)
		return
	}
	h.faults[host] = hostFault{delay: d}
}

// Heal removes every fault from the given hosts (no hosts = heal all).
func (h *HostFaults) Heal(hosts ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(hosts) == 0 {
		clear(h.faults)
		return
	}
	for _, host := range hosts {
		delete(h.faults, host)
	}
}

// Dropped counts requests refused while their host was blocked.
func (h *HostFaults) Dropped() uint64 { return h.dropped.Load() }

// Delayed counts requests that were slowed down.
func (h *HostFaults) Delayed() uint64 { return h.delayed.Load() }

// RoundTrip implements http.RoundTripper. An injected delay honors the
// request context: a caller timeout fires during it exactly as it would
// during a real stall.
func (h *HostFaults) RoundTrip(req *http.Request) (*http.Response, error) {
	h.mu.Lock()
	f := h.faults[req.URL.Host]
	h.mu.Unlock()
	switch {
	case f.drop:
		h.dropped.Add(1)
		drainBody(req)
		return nil, fmt.Errorf("%w: partitioned from %s", ErrInjected, req.URL.Host)
	case f.delay > 0:
		h.delayed.Add(1)
		if err := sleepCtx(req.Context(), f.delay); err != nil {
			return nil, err
		}
	}
	return h.rt.RoundTrip(req)
}

// sleepCtx waits d or until ctx is done, whichever comes first, returning
// ctx's error in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drainBody drains and closes a request body the way a real transport
// would when it fails the exchange.
func drainBody(req *http.Request) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
}
