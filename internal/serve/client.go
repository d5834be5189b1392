package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Client is the Go frontend client for a HARVEST inference server.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// MaxRetries bounds retry attempts for idempotent GETs (transport
	// errors and 5xx responses) and for 429-rejected inferences (safe:
	// a shed request was never admitted). 0 means defaultMaxRetries;
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the initial backoff between retries, doubled per
	// attempt. 0 means defaultRetryBackoff.
	RetryBackoff time.Duration
}

const (
	defaultMaxRetries   = 3
	defaultRetryBackoff = 25 * time.Millisecond
	// defaultRequestTimeout bounds one HTTP attempt. A request with a
	// deadline_ms gets deadline + deadlineSlack when that is shorter, so
	// a tight SLO is not fought by the long cap.
	defaultRequestTimeout = 60 * time.Second
	// deadlineSlack pads a deadline-derived attempt timeout: the server
	// answers an unmeetable deadline with 504 almost immediately, but
	// the response still has to cross the network.
	deadlineSlack = time.Second
)

// NewTransport returns an HTTP transport tuned for serving fan-out:
// enough idle connections per host that a router probing and proxying
// to many replicas reuses connections instead of exhausting ephemeral
// ports, and bounded dial/handshake times so a dead replica fails fast.
func NewTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return frameConn{conn}, nil
		},
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// frameConn sends the rest of a framed body, which net/http hands to
// ReadFrom, in one writev; net's ReadFrom copies it through a new 32 KB.
type frameConn struct{ net.Conn }

func (c frameConn) ReadFrom(r io.Reader) (int64, error) {
	if lr, ok := r.(*io.LimitedReader); ok {
		if fr, ok := lr.R.(*frameReader); ok && fr.len() == lr.N {
			n, err := fr.WriteTo(c.Conn)
			lr.N -= n
			return n, err
		}
	}
	return io.Copy(c.Conn, r)
}

// NewClient creates a client for the given base URL (e.g.
// "http://127.0.0.1:8000"). The underlying transport is owned by the
// client; replace or share one via the HTTP field (a router fanning
// out to many replicas should share a single NewTransport across its
// per-replica clients). Attempt timeouts are per-request, not a global
// http.Client.Timeout, so per-request deadlines are honored.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Transport: NewTransport()},
	}
}

// retries and backoff resolve the client's retry knobs.
func (c *Client) retries() int {
	if c.MaxRetries == 0 {
		return defaultMaxRetries
	}
	return max(c.MaxRetries, 0)
}

func (c *Client) backoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return defaultRetryBackoff
	}
	return c.RetryBackoff
}

// attemptCtx bounds one HTTP attempt: by the request's own deadline
// plus slack when it carries one and that is shorter, by
// defaultRequestTimeout otherwise.
func attemptCtx(ctx context.Context, deadlineMs float64) (context.Context, context.CancelFunc) {
	timeout := defaultRequestTimeout
	if deadlineMs > 0 {
		timeout = min(timeout, MsDuration(deadlineMs+float64(deadlineSlack/time.Millisecond)))
	}
	return context.WithTimeout(ctx, timeout)
}

// StatusError reports a non-2xx HTTP response from the server,
// preserving the status code so callers (the replica router in
// particular) can distinguish replica faults (5xx, eject-worthy) from
// backpressure (429, spill elsewhere) and caller errors (4xx, final).
type StatusError struct {
	Code int
	Msg  string
	// base is the matching sentinel error (ErrOverloaded,
	// ErrDeadlineExpired, ErrServerClosed) when the code maps to one.
	base error
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Msg)
	}
	return fmt.Sprintf("serve: HTTP %d", e.Code)
}

func (e *StatusError) Unwrap() error { return e.base }

// statusError builds the StatusError for a non-OK response.
func statusError(code int, msg string) *StatusError {
	e := &StatusError{Code: code, Msg: msg}
	switch code {
	case http.StatusTooManyRequests:
		e.base = ErrOverloaded
	case http.StatusGatewayTimeout:
		e.base = ErrDeadlineExpired
	case http.StatusServiceUnavailable:
		e.base = ErrServerClosed
	}
	return e
}

// drainClose exhausts and closes a response body so the underlying
// HTTP connection can be reused instead of torn down.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	body.Close()
}

// getJSON fetches path with bounded retry-with-backoff (safe: GETs are
// idempotent) and decodes a 200 response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	retries := c.retries()
	backoff := c.backoff()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("serve: GET %s: %w (last error: %v)", path, ctx.Err(), lastErr)
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		err := c.getJSONOnce(ctx, path, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var re *retryableError
		if attempt >= retries || ctx.Err() != nil || !errors.As(err, &re) {
			return err
		}
	}
}

// retryableError marks transport failures and 5xx responses.
type retryableError struct{ err error }

func (r *retryableError) Error() string { return r.err.Error() }
func (r *retryableError) Unwrap() error { return r.err }

func (c *Client) getJSONOnce(ctx context.Context, path string, out any) error {
	ctx, cancel := attemptCtx(ctx, 0)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return &retryableError{fmt.Errorf("serve: GET %s: %w", path, err)}
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("serve: GET %s: HTTP %d", path, resp.StatusCode)
		if resp.StatusCode >= 500 {
			return &retryableError{err}
		}
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Ready reports whether the server's readiness probe succeeds.
func (c *Client) Ready(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/health/ready", nil)
	if err != nil {
		return false
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return false
	}
	defer drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// WaitReady polls readiness until success or the context ends.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		if c.Ready(ctx) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: server not ready: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Models lists the models served.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	var out ModelListJSON
	if err := c.getJSON(ctx, "/v2/models", &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Metrics fetches the per-model serving metrics of every model.
func (c *Client) Metrics(ctx context.Context) (*MetricsJSON, error) {
	var out MetricsJSON
	if err := c.getJSON(ctx, "/v2/metrics", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TransportError classifies a failed infer round trip by whether any of
// the request reached the wire. Sent == false means the failure struck
// before the request was written (dial refused, TLS failure, a dead
// replica's port): the server cannot have seen the request, so
// resending cannot duplicate work. Sent == true means the request — or
// part of it — was written and the transport failed afterwards (reset
// mid-body, connection killed before the response): the server may have
// executed the inference, so a non-idempotent retry is unsafe and the
// error is final from the client's point of view.
type TransportError struct {
	Sent bool
	Err  error
}

func (e *TransportError) Error() string {
	if e.Sent {
		return fmt.Sprintf("serve: transport failure after request was sent (may have executed): %v", e.Err)
	}
	return fmt.Sprintf("serve: transport failure before request was sent: %v", e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// RequestUnsent reports whether err is a transport failure that struck
// before any request bytes were written — the only transport failure a
// non-idempotent request may be blindly retried after.
func RequestUnsent(err error) bool {
	var te *TransportError
	return errors.As(err, &te) && !te.Sent
}

// overloadError marks a 429 rejection, carrying the server's
// Retry-After hint.
type overloadError struct {
	err        error
	retryAfter time.Duration
	// hasRetryAfter distinguishes an explicit "Retry-After: 0" (the
	// server says retry immediately) from an absent or unparseable
	// header (fall back to the client's own backoff).
	hasRetryAfter bool
}

func (o *overloadError) Error() string { return o.err.Error() }
func (o *overloadError) Unwrap() error { return o.err }

// RetryAfterHint extracts the server's Retry-After hint from a 429
// error returned by Infer, for callers that disable the client's
// internal retries (MaxRetries < 0) and manage backoff themselves —
// e.g. a closed-loop load driver that must not hammer rejects in a
// tight loop.
func RetryAfterHint(err error) (time.Duration, bool) {
	var oe *overloadError
	if errors.As(err, &oe) && oe.hasRetryAfter {
		return oe.retryAfter, true
	}
	return 0, false
}

// parseRetryAfter parses a Retry-After header value in either RFC 7231
// form: delta-seconds ("120") or an HTTP-date. ok reports whether the
// header was present and parseable. Negative deltas and past dates
// yield 0 (retry immediately).
func parseRetryAfter(h string, now time.Time) (time.Duration, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	if sec, err := strconv.Atoi(h); err == nil {
		return time.Duration(max(sec, 0)) * time.Second, true
	}
	if t, err := http.ParseTime(h); err == nil {
		return max(t.Sub(now), 0), true
	}
	return 0, false
}

// Infer submits one inference request. Ordinary failures are not
// retried (POSTs are not idempotent from the server's point of view),
// but a 429 rejection is: the request was shed before admission, so
// resubmitting after the server's Retry-After hint (capped at the
// client's doubling backoff schedule) cannot duplicate work. When the
// body carries no deadline_ms and the context has a deadline, the
// remaining context budget propagates as the request's deadline.
func (c *Client) Infer(ctx context.Context, model string, body InferRequestJSON) (*InferResponseJSON, error) {
	retries := c.retries()
	backoff := c.backoff()
	explicitDeadline := body.DeadlineMs > 0
	for attempt := 0; ; attempt++ {
		if !explicitDeadline {
			// Re-derive per attempt: the remaining budget shrinks while
			// we back off.
			body.DeadlineMs = 0
			if dl, ok := ctx.Deadline(); ok {
				if ms := float64(time.Until(dl)) / float64(time.Millisecond); ms > 0 {
					body.DeadlineMs = ms
				}
			}
		}
		out, err := c.inferOnce(ctx, model, body)
		if err == nil {
			return out, nil
		}
		// Retry only failures that provably never reached the batcher: a
		// 429 (shed before admission) or a transport failure before the
		// request was written. A mid-body or mid-response transport error
		// is final here — the server may have executed the inference, and
		// resending would double-count the work (for a camera stream, the
		// frame). Callers that can failover safely (the router, with its
		// replica-side accounting) make that decision themselves.
		var oe *overloadError
		retryable := errors.As(err, &oe) || RequestUnsent(err)
		if attempt >= retries || ctx.Err() != nil || !retryable {
			return nil, err
		}
		// The server's Retry-After is a *floor* on the next attempt, not
		// a cap: retrying sooner than the server asked amplifies the very
		// congestion that caused the 429. An explicit "Retry-After: 0"
		// means retry immediately. Absent a hint, the client's own
		// doubling backoff applies.
		wait := backoff
		if oe != nil && oe.hasRetryAfter {
			if oe.retryAfter == 0 {
				wait = 0
			} else if oe.retryAfter > wait {
				wait = oe.retryAfter
			}
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < wait {
			// Honoring the floor would outlive the caller's budget:
			// surface the overload instead of sleeping into the deadline.
			return nil, fmt.Errorf("serve: infer %s: retry-after %s exceeds context budget: %w (last error: %v)",
				model, wait, context.DeadlineExceeded, err)
		}
		if wait > 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("serve: infer %s: %w (last error: %v)", model, ctx.Err(), err)
			case <-time.After(wait):
			}
		}
		backoff *= 2
	}
}

func (c *Client) inferOnce(ctx context.Context, model string, body InferRequestJSON) (*InferResponseJSON, error) {
	// Images and tensors travel as raw parts after the JSON (wire.go).
	f, err := encodeInfer(&body)
	if err != nil {
		return nil, err
	}
	ctx, cancel := attemptCtx(ctx, body.DeadlineMs)
	defer cancel()
	// Track whether this attempt's bytes ever hit the wire. Once the
	// header block is written the server may have begun executing the
	// request, so a later failure must not be retried as a refused dial is.
	var sent atomic.Bool
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteHeaders: func() { sent.Store(true) },
	})
	// A payload-free body stays one in-memory reader, which the
	// transport writes together with the request's headers.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+FormatInferPath(model), bytes.NewReader(f.hdr))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if len(f.parts) > 0 {
		// The parts are the caller's memory, at a router a pooled buffer:
		// nothing may read them once this attempt has returned. GetBody is
		// the replay on a stale keep-alive connection.
		defer f.revoke()
		req.Body, req.ContentLength = f.reader(), f.length
		req.GetBody = func() (io.ReadCloser, error) { return f.reader(), nil }
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(InferHeaderLength, strconv.Itoa(len(f.hdr)))
	}
	if body.ID != "" {
		// Every tier logs and traces the request under this one id.
		req.Header.Set(RequestIDHeader, body.ID)
	}
	if body.Tenant != "" {
		// So intermediaries that read only headers see the tenant too.
		req.Header.Set(TenantHeader, body.Tenant)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, &TransportError{Sent: sent.Load(), Err: err}
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e errorJSON
		_ = json.NewDecoder(resp.Body).Decode(&e) // no errorJSON: no message
		se := statusError(resp.StatusCode, e.Error)
		if resp.StatusCode == http.StatusTooManyRequests {
			after, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
			return nil, &overloadError{err: se, retryAfter: after, hasRetryAfter: ok}
		}
		return nil, se
	}
	// The response says how it is framed (a server may always answer in
	// plain JSON). Its parts are tensors, decoded out of the buffer.
	var out responseHeader
	buf, err := decodeInfer(resp.Body, resp.Header, resp.ContentLength, wireLimits{}, &wirePool, &out)
	buf.release()
	if err != nil {
		// %v: a refusal's status is this decoder's, not the server's.
		return nil, fmt.Errorf("serve: infer %s: response: %v", model, err)
	}
	return &out.InferResponseJSON, nil
}
