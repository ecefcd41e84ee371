package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/experiment"
)

// Client is the thin HTTP client cmd/sweep -remote uses to drive a sweepd
// daemon: submit a spec, follow the event stream, and fetch the result set
// verbatim (raw bytes, preserving byte-identity with a local sweep). Every
// unary call runs under a per-call deadline (Timeout), and idempotent GETs
// are retried with jittered exponential backoff, so a daemon restarting
// mid-poll or a flaky link costs a delay, not a failed sweep.
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:8422".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Timeout bounds each unary call — submit, status, results, report,
	// metrics — but not Stream, which is long-lived by design and bounded
	// by its context. Zero means the default of 30s.
	Timeout time.Duration
	// Retry overrides the backoff schedule for idempotent GETs (zero value
	// = the package default: 4 attempts, 100ms base, jittered).
	Retry retryPolicy
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

func (c *Client) retry() retryPolicy {
	rp := c.Retry
	if rp.Attempts == 0 {
		rp = defaultRetry
	}
	rp.PerTry = c.timeout()
	return rp
}

// statusError is a non-2xx response: its status code and the server's
// message. Callers match codes with errors.As, never by searching the text,
// which also carries URLs and worker IDs.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// decodeOrError parses a JSON body into v, turning non-2xx responses into
// *statusError values carrying the server's message.
func decodeOrError(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("svc: read response: %w", err)
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(bytes.TrimSpace(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("svc: %s: %s", resp.Status, msg)}
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("svc: decode response: %w", err)
	}
	return nil
}

// postJSON issues one POST with a JSON body under ctx and decodes the
// response into out. Non-2xx responses come back as errors; retryable
// statuses (5xx, 429) are marked so a retry loop repeats them and client
// errors are surfaced immediately.
func postJSON(ctx context.Context, hc *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return permanent(fmt.Errorf("svc: encode request: %w", err))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return permanent(fmt.Errorf("svc: build request: %w", err))
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err // transport errors are retryable
	}
	retryable := retryableStatus(resp.StatusCode)
	if err := decodeOrError(resp, out); err != nil {
		if retryable {
			return err
		}
		return permanent(err)
	}
	return nil
}

// Submit posts a spec and returns the (possibly pre-existing) job's status.
// Submission is idempotent — specs are content-addressed, so a retried POST
// coalesces onto the job the lost response described — and is therefore
// retried like a GET.
func (c *Client) Submit(spec experiment.GridSpec) (Status, error) {
	var st Status
	err := c.retry().do(context.Background(), "submit", func(ctx context.Context) error {
		return postJSON(ctx, c.http(), c.url("/v1/sweeps"), spec, &st)
	})
	return st, err
}

// Status fetches a job's status.
func (c *Client) Status(id string) (Status, error) {
	var st Status
	if err := c.getJSON("/v1/sweeps/"+id, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// getJSON is a deadline-bounded, retried GET decoding a JSON body.
func (c *Client) getJSON(path string, v any) error {
	return c.retry().do(context.Background(), "get "+path, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
		if err != nil {
			return permanent(err)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		retryable := retryableStatus(resp.StatusCode)
		if err := decodeOrError(resp, v); err != nil {
			if retryable {
				return err
			}
			return permanent(err)
		}
		return nil
	})
}

// Stream follows the job's NDJSON event stream — full replay, then live —
// invoking onEvent per line until the server ends the stream (job done or
// cancelled) or ctx is cancelled. Note that cancelling ctx disconnects the
// subscriber, which cancels the job's remaining work if no other subscriber
// is attached. Streams are not retried: reconnecting would replay events
// the caller already saw, and the caller owns that policy.
func (c *Client) Stream(ctx context.Context, id string, onEvent func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/sweeps/"+id+"/events"), nil)
	if err != nil {
		return fmt.Errorf("svc: stream: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("svc: stream: %w", err)
	}
	if resp.StatusCode >= 300 {
		return decodeOrError(resp, nil)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("svc: stream decode: %w", err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
	}
	return sc.Err()
}

// Results fetches the completed job's ResultSet as raw bytes — exactly what
// the server wrote, so a client saving them to disk preserves byte-identity
// with a local cmd/sweep run.
func (c *Client) Results(id string) ([]byte, error) {
	return c.raw("/v1/sweeps/" + id + "/results")
}

// Report fetches the completed job's markdown report. figures=false appends
// ?figures=0.
func (c *Client) Report(id string, figures bool) ([]byte, error) {
	path := "/v1/sweeps/" + id + "/report"
	if !figures {
		path += "?figures=0"
	}
	return c.raw(path)
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics() ([]byte, error) {
	return c.raw("/metrics")
}

// raw is a deadline-bounded, retried GET returning the body verbatim.
func (c *Client) raw(path string) ([]byte, error) {
	var body []byte
	err := c.retry().do(context.Background(), "get "+path, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
		if err != nil {
			return permanent(err)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode >= 300 {
			err := decodeOrError(resp, nil)
			if retryableStatus(resp.StatusCode) {
				return err
			}
			return permanent(err)
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("svc: read %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}
