// Package client is the typed Go client for the simd service. It layers
// the robustness contract the server publishes onto plain net/http: retries
// with exponential backoff and full jitter that honor Retry-After on
// 429/503, client-supplied idempotency keys so a retried submission can
// never run a job twice (the server deduplicates them, across restarts when
// journaling), and a consecutive-failure circuit breaker with half-open
// probes so a dead daemon is detected in one round-trip instead of
// max-attempts × timeout.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// RetryPolicy shapes the backoff schedule. The delay before attempt n
// (1-based, after the first failure) is drawn uniformly from
// [0, min(MaxDelay, BaseDelay·2ⁿ⁻¹)] — full jitter, so a thundering herd of
// retrying clients decorrelates instead of re-arriving in lockstep. A
// server-sent Retry-After overrides the jittered delay: the server knows
// its drain better than the client's schedule does.
type RetryPolicy struct {
	MaxAttempts int           // total tries, default 4; 1 disables retries
	BaseDelay   time.Duration // first backoff ceiling, default 100ms
	MaxDelay    time.Duration // backoff cap, default 5s
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// BreakerPolicy configures the circuit breaker. After Threshold
// consecutive request failures the circuit opens: calls fail fast with
// ErrCircuitOpen (no network traffic) for Cooldown, then a single half-open
// probe is let through — success closes the circuit, failure re-opens it
// for another Cooldown.
type BreakerPolicy struct {
	Threshold int           // consecutive failures to open, default 5; <0 disables
	Cooldown  time.Duration // open duration before the half-open probe, default 2s
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold == 0 {
		p.Threshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2 * time.Second
	}
	return p
}

// Options configures a Client. The zero value is usable.
type Options struct {
	HTTPClient *http.Client                     // default http.DefaultClient
	Retry      RetryPolicy                      // retry schedule
	Breaker    BreakerPolicy                    // circuit breaker
	Seed       int64                            // jitter seed; 0 seeds from the clock
	Logf       func(format string, args ...any) // retry/breaker events; nil = silent
}

// ErrCircuitOpen is returned (wrapped) when the breaker fails a call fast
// without touching the network.
var ErrCircuitOpen = errors.New("circuit open: server marked unavailable")

// StatusError is a non-2xx response that was not retried to success.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// Client talks to one simd base URL. Safe for concurrent use.
type Client struct {
	base    string
	httpc   *http.Client
	retry   RetryPolicy
	breaker BreakerPolicy
	logf    func(string, ...any)

	mu       sync.Mutex
	rng      *rand.Rand
	fails    int       // consecutive failures (closed state)
	openedAt time.Time // breaker open since; zero = closed
	probing  bool      // a half-open probe is in flight
}

// New builds a client for the simd at base (e.g. "http://127.0.0.1:8080").
func New(base string, opts Options) *Client {
	httpc := opts.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		httpc:   httpc,
		retry:   opts.Retry.withDefaults(),
		breaker: opts.Breaker.withDefaults(),
		logf:    logf,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// --- circuit breaker ---

// allow admits a request, or fails it fast while the circuit is open. At
// most one probe is in flight during half-open.
func (c *Client) allow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openedAt.IsZero() {
		return nil
	}
	if time.Since(c.openedAt) < c.breaker.Cooldown || c.probing {
		return ErrCircuitOpen
	}
	c.probing = true // this caller is the half-open probe
	return nil
}

func (c *Client) reportSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails = 0
	c.probing = false
	if !c.openedAt.IsZero() {
		c.logf("simclient: circuit closed")
		c.openedAt = time.Time{}
	}
}

func (c *Client) reportFailure() {
	if c.breaker.Threshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.probing {
		// The half-open probe failed: straight back to open.
		c.probing = false
		c.openedAt = time.Now()
		c.logf("simclient: half-open probe failed, circuit re-opened")
		return
	}
	c.fails++
	if c.openedAt.IsZero() && c.fails >= c.breaker.Threshold {
		c.openedAt = time.Now()
		c.logf("simclient: circuit opened after %d consecutive failures", c.fails)
	}
}

// --- retry engine ---

// backoff returns the full-jitter delay before the given retry (1-based).
func (c *Client) backoff(retryN int) time.Duration {
	ceil := c.retry.BaseDelay << (retryN - 1)
	if ceil > c.retry.MaxDelay || ceil <= 0 {
		ceil = c.retry.MaxDelay
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(ceil) + 1))
}

// retryAfter parses a Retry-After header (integral seconds form).
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// do runs one request through the breaker and the retry schedule. body is
// re-invoked per attempt so retries never reuse a consumed reader.
// Transport-level failures are retried only when retryAmbiguous (the
// request is idempotent on the server: a GET, or a POST carrying an
// idempotency key); 429/503 are always retriable because they mean the
// request was refused before taking effect.
func (c *Client) do(ctx context.Context, method, path string, body func() io.Reader, hdr http.Header, retryAmbiguous bool) (*http.Response, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := c.allow(); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		var rd io.Reader
		if body != nil {
			rd = body()
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			c.reportSuccess() // config error, not a server failure
			return nil, err
		}
		for k, vs := range hdr {
			req.Header[k] = vs
		}

		resp, err := c.httpc.Do(req)
		var delay time.Duration
		var hinted bool
		switch {
		case err != nil:
			c.reportFailure()
			lastErr = err
			if !retryAmbiguous {
				return nil, err
			}
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			c.reportFailure()
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = &StatusError{Code: resp.StatusCode, Body: string(b)}
			delay, hinted = retryAfter(resp)
		default:
			c.reportSuccess()
			return resp, nil
		}

		if attempt >= c.retry.MaxAttempts {
			return nil, fmt.Errorf("%s %s: %d attempts: %w", method, path, attempt, lastErr)
		}
		if !hinted {
			delay = c.backoff(attempt)
		}
		c.logf("simclient: %s %s attempt %d failed (%v), retrying in %v", method, path, attempt, lastErr, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("%s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
		}
	}
}

// decode reads a JSON body into v, converting non-2xx into StatusError.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &StatusError{Code: resp.StatusCode, Body: string(b)}
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

// --- API surface ---

// specBody marshals a spec once and replays it per attempt.
func specBody(spec server.Spec) (func() io.Reader, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return func() io.Reader { return bytes.NewReader(raw) }, nil
}

// keyHeader builds the submission headers for an idempotency key.
func keyHeader(key string) http.Header {
	h := http.Header{"Content-Type": []string{"application/json"}}
	if key != "" {
		h.Set("Idempotency-Key", key)
	}
	return h
}

// SubmitAsync submits a job (202/200) and returns its record without
// waiting for results. With a non-empty idempotency key the call is safely
// retriable end-to-end; without one, only pre-admission refusals (429/503)
// are retried.
func (c *Client) SubmitAsync(ctx context.Context, spec server.Spec, key string) (server.Info, error) {
	body, err := specBody(spec)
	if err != nil {
		return server.Info{}, err
	}
	resp, err := c.do(ctx, "POST", "/v1/jobs?async=1", body, keyHeader(key), key != "")
	if err != nil {
		return server.Info{}, err
	}
	var info server.Info
	return info, decode(resp, &info)
}

// Submit runs a job synchronously and returns the full NDJSON result body.
func (c *Client) Submit(ctx context.Context, spec server.Spec, key string) ([]byte, error) {
	body, err := specBody(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, "POST", "/v1/jobs", body, keyHeader(key), key != "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Body: string(raw)}
	}
	return raw, nil
}

// Job fetches a job's current record.
func (c *Client) Job(ctx context.Context, id string) (server.Info, error) {
	resp, err := c.do(ctx, "GET", "/v1/jobs/"+id, nil, nil, true)
	if err != nil {
		return server.Info{}, err
	}
	var info server.Info
	return info, decode(resp, &info)
}

// Result fetches a job's NDJSON result, following a live run to completion.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, "GET", "/v1/jobs/"+id+"/result", nil, nil, true)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Body: string(raw)}
	}
	return raw, nil
}

// Cancel requests cancellation and returns the job's record.
func (c *Client) Cancel(ctx context.Context, id string) (server.Info, error) {
	resp, err := c.do(ctx, "DELETE", "/v1/jobs/"+id, nil, nil, true)
	if err != nil {
		return server.Info{}, err
	}
	var info server.Info
	return info, decode(resp, &info)
}

// Wait polls a job until it reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.Info, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return info, err
		}
		switch info.Status {
		case server.StatusDone, server.StatusFailed, server.StatusCancelled:
			return info, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return info, ctx.Err()
		}
	}
}

// Ready reports nil when the daemon answers /readyz with 200 ("ok
// state=ready"); a 503 comes back as a StatusError whose body carries the
// state= field (replaying vs draining). The probe is a single attempt that
// bypasses the retry schedule and the circuit breaker: "not ready yet" is
// the expected answer while a daemon replays its journal or drains, and a
// polling caller must neither burn MaxAttempts of backoff per poll nor
// open the breaker and fail unrelated calls with ErrCircuitOpen.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	return decode(resp, nil)
}
