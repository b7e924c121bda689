package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// hostFault is one host's injected behaviour: dropped outright, or delayed.
type hostFault struct {
	drop  bool
	delay time.Duration
}

// Block cuts connectivity to the given hosts ("host:port" as it appears in
// request URLs) until Heal: requests to them fail with a transport error, a
// network partition as net/http sees one.
func (inj *Injector) Block(hosts ...string) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, host := range hosts {
		inj.hosts[host] = hostFault{drop: true}
	}
}

// SetDelay injects d of extra latency before every request to host until
// Heal (a brownout). A non-positive d heals the host.
func (inj *Injector) SetDelay(host string, d time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if d <= 0 {
		delete(inj.hosts, host)
		return
	}
	inj.hosts[host] = hostFault{delay: d}
}

// Heal removes every host fault from the given hosts (no hosts = heal all).
// The plan's indexed faults are unaffected.
func (inj *Injector) Heal(hosts ...string) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(hosts) == 0 {
		clear(inj.hosts)
		return
	}
	for _, host := range hosts {
		delete(inj.hosts, host)
	}
}

// httpFaultFor pops the plan fault (if any) scheduled for the next request.
// The request counter is shared by every RoundTripper of one Injector: a
// plan addresses one exchange sequence.
func (inj *Injector) httpFaultFor() (HTTPFault, bool) {
	idx := int(inj.httpReqs.Add(1)) - 1
	for _, f := range inj.plan.HTTP {
		if f.matches(idx) {
			return f, true
		}
	}
	return HTTPFault{}, false
}

// RoundTripper wraps rt with the injector's HTTP faults on the client side.
// A nil rt wraps http.DefaultTransport.
//
// Host faults (Block, SetDelay) apply first: a blocked host's request fails
// without consuming a plan index, a slowed host's request waits out its
// delay and then meets the plan. Plan faults fire by request index:
// ModeLatency delays the exchange, ModeError answers with the configured
// status (default 503) and a Retry-After hint without reaching the server,
// and ModeDrop fails it with a transport error. Every injected delay honors
// the request context, like a real stall would, so a caller deadline fires
// during it. Every fault counts in Stats().HTTP.
func (inj *Injector) RoundTripper(rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		inj.mu.Lock()
		hf := inj.hosts[req.URL.Host]
		inj.mu.Unlock()
		switch {
		case hf.drop:
			inj.httpFaults.Add(1)
			drainBody(req)
			return nil, fmt.Errorf("%w: partitioned from %s", ErrInjected, req.URL.Host)
		case hf.delay > 0:
			inj.httpFaults.Add(1)
			if err := sleepCtx(req.Context(), hf.delay); err != nil {
				return nil, err
			}
		}
		f, ok := inj.httpFaultFor()
		if !ok {
			return rt.RoundTrip(req)
		}
		inj.httpFaults.Add(1)
		switch f.Mode {
		case ModeLatency:
			if err := sleepCtx(req.Context(), time.Duration(f.LatencyMS)*time.Millisecond); err != nil {
				return nil, err
			}
			return rt.RoundTrip(req)
		case ModeError:
			code := f.Code
			if code == 0 {
				code = http.StatusServiceUnavailable
			}
			drainBody(req)
			return &http.Response{
				StatusCode: code,
				Status:     strconv.Itoa(code) + " " + http.StatusText(code),
				Proto:      "HTTP/1.1",
				ProtoMajor: 1,
				ProtoMinor: 1,
				Header:     http.Header{"Retry-After": []string{"1"}},
				Body:       io.NopCloser(strings.NewReader("chaos: injected fault\n")),
				Request:    req,
			}, nil
		default: // ModeDrop
			drainBody(req)
			return nil, fmt.Errorf("%w: dropped connection", ErrInjected)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

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
