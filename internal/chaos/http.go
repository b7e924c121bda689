package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// httpFaultFor pops the fault (if any) scheduled for the next request. The
// request counter is shared between Handler and RoundTripper wrappers of one
// Injector: a plan addresses one exchange sequence, whichever side it is
// wired into.
func (inj *Injector) httpFaultFor() (HTTPFault, bool) {
	idx := int(inj.httpReqs.Add(1)) - 1
	for _, f := range inj.plan.HTTP {
		if f.matches(idx) {
			return f, true
		}
	}
	return HTTPFault{}, false
}

// Handler wraps h with the plan's HTTP faults on the server side.
//
// ModeLatency delays the response (a request whose context ends during the
// delay is abandoned unserved); ModeError short-circuits with the
// configured status (default 503) and a Retry-After hint; ModeDrop severs
// the connection without writing a response (the client sees io.EOF /
// connection reset), via the net/http-sanctioned http.ErrAbortHandler panic.
func (inj *Injector) Handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := inj.httpFaultFor()
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		switch f.Mode {
		case ModeLatency:
			inj.httpFaults.Add(1)
			if sleepCtx(r.Context(), time.Duration(f.LatencyMS)*time.Millisecond) == nil {
				h.ServeHTTP(w, r)
			}
		case ModeError:
			inj.httpFaults.Add(1)
			code := f.Code
			if code == 0 {
				code = http.StatusServiceUnavailable
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "chaos: injected fault", code)
		case ModeDrop:
			inj.httpFaults.Add(1)
			panic(http.ErrAbortHandler)
		}
	})
}

// RoundTripper wraps rt with the plan's HTTP faults on the client side,
// for chaos-testing clients against a healthy server. A nil rt wraps
// http.DefaultTransport. ModeLatency honors the request context, like a
// real stall would.
func (inj *Injector) RoundTripper(rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		f, ok := inj.httpFaultFor()
		if !ok {
			return rt.RoundTrip(req)
		}
		switch f.Mode {
		case ModeLatency:
			inj.httpFaults.Add(1)
			if err := sleepCtx(req.Context(), time.Duration(f.LatencyMS)*time.Millisecond); err != nil {
				return nil, err
			}
			return rt.RoundTrip(req)
		case ModeError:
			inj.httpFaults.Add(1)
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
			inj.httpFaults.Add(1)
			drainBody(req)
			return nil, fmt.Errorf("%w: dropped connection", ErrInjected)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
