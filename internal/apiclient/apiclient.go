// Package apiclient is the one HTTP client for whirld's v1 API: every
// in-repo consumer — the distributed dispatcher, the whirlload traffic
// generator, the smoke tests — talks to a daemon through it, so the
// wire conventions (the JSON error envelope, Retry-After back-pressure,
// SSE framing) are implemented exactly once.
//
// The client is deliberately schema-light: it moves JSON values and SSE
// events, and callers bring their own request/response types. What it
// owns is the error contract: every non-2xx /v1 response body is the
// envelope
//
//	{"error": {"code": "queue_full", "message": "job queue is full (64 pending)"}}
//
// which Do/GetJSON/PostJSON/Delete decode into a typed *Error carrying
// the machine-readable code, the human message, the HTTP status, and
// any Retry-After hint — so callers switch on err.Code instead of
// re-parsing bodies.
package apiclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"whirlpool/internal/obs"
)

// Error is a decoded non-2xx response. It is always returned as *Error
// so errors.As works from any wrapping depth.
type Error struct {
	// Code is the envelope's machine-readable error code ("bad_request",
	// "queue_full", ...). Empty when the body was not an envelope;
	// Status still identifies the failure.
	Code string
	// Message is the human-readable half of the envelope (or the raw
	// body when no envelope was present).
	Message string
	// Status is the HTTP status code.
	Status int
	// RetryAfter is the parsed Retry-After header (0 when absent): the
	// server's back-pressure hint for 429/503 responses.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("HTTP %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("HTTP %d: %s", e.Status, e.Message)
}

// Temporary reports whether the failure is back-pressure the caller
// should retry (429 shed or 503 queue-full/drain), as opposed to a
// deterministic rejection.
func (e *Error) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// ErrorStatus returns err's HTTP status when err is (or wraps) an
// *Error, and 0 otherwise.
func ErrorStatus(err error) int {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// envelope is the wire shape of every non-2xx /v1 body.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// decodeError builds the *Error for a non-2xx response from its body
// and headers. Never fails: an undecodable body becomes the message
// verbatim (truncated), so the caller always sees something actionable.
func decodeError(resp *http.Response, body []byte) *Error {
	e := &Error{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var env envelope
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		return e
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 512 {
		msg = msg[:512] + "..."
	}
	if msg == "" {
		msg = http.StatusText(resp.StatusCode)
	}
	e.Message = msg
	return e
}

// Client talks to one daemon. The zero value is not usable; build with
// New.
type Client struct {
	base string
	http *http.Client
}

// New builds a Client for the daemon at base (e.g. "http://host:8080";
// trailing slashes are trimmed). hc overrides the HTTP client — pass
// nil for a default with no overall timeout, which SSE streams need.
func New(base string, hc *http.Client) (*Client, error) {
	base = strings.TrimRight(strings.TrimSpace(base), "/")
	if base == "" {
		return nil, fmt.Errorf("apiclient: empty base URL")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("apiclient: base URL %q is not http(s)", base)
	}
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, http: hc}, nil
}

// Base returns the normalized base URL.
func (c *Client) Base() string { return c.base }

// Do issues one request against path (which must start with "/"),
// decoding a 2xx JSON body into out (skipped when out is nil) and any
// other status into an *Error. body, when non-nil, is marshaled as the
// JSON request body.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("apiclient: encoding %s %s body: %v", method, path, err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("apiclient: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	injectTraceparent(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("apiclient: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return decodeError(resp, data)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("apiclient: decoding %s %s response: %v", method, path, err)
	}
	return nil
}

// injectTraceparent stamps the W3C traceparent header when ctx carries
// a span context (obs.NewContext), so every API call a traced caller
// makes joins its trace — this is how a coordinator's job span becomes
// the parent of a worker's request span across the wire.
func injectTraceparent(ctx context.Context, req *http.Request) {
	if sc, ok := obs.FromContext(ctx); ok {
		req.Header.Set(obs.TraceparentHeader, obs.Traceparent(sc))
	}
}

// GetJSON GETs path and decodes the JSON response into out.
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	return c.Do(ctx, http.MethodGet, path, nil, out)
}

// GetRaw GETs path and returns the raw response body (capped at 16 MiB)
// — for non-JSON payloads like the JSONL trace endpoint.
func (c *Client) GetRaw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("apiclient: %v", err)
	}
	injectTraceparent(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("apiclient: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return nil, decodeError(resp, data)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("apiclient: reading %s: %w", path, err)
	}
	return data, nil
}

// PostJSON POSTs body as JSON and decodes the response into out.
func (c *Client) PostJSON(ctx context.Context, path string, body, out any) error {
	return c.Do(ctx, http.MethodPost, path, body, out)
}

// Delete issues a DELETE, decoding the response into out when non-nil.
func (c *Client) Delete(ctx context.Context, path string, out any) error {
	return c.Do(ctx, http.MethodDelete, path, nil, out)
}

// Event is one Server-Sent Event.
type Event struct {
	// ID is the event's id: line parsed as an integer (0 when absent —
	// whirld row ordinals start at 1).
	ID int
	// Name is the event: field ("row", "done").
	Name string
	// Data is the event's data: payload, typically JSON.
	Data []byte
}

// Stream is an open SSE subscription. Close it (or cancel the request
// context) to release the connection.
type Stream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// Stream GETs an SSE endpoint (e.g. "/v1/jobs/j1/stream"). The caller
// must Close the returned stream.
func (c *Client) Stream(ctx context.Context, path string) (*Stream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("apiclient: %v", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	injectTraceparent(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("apiclient: stream %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		return nil, decodeError(resp, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	return &Stream{body: resp.Body, sc: sc}, nil
}

// Next returns the next event. io.EOF means the server ended the
// stream; any other error is a transport failure.
func (s *Stream) Next() (Event, error) {
	var ev Event
	have := false
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			// Blank line terminates an event — but only one that carried
			// data; leading keep-alive blanks are skipped.
			if have {
				return ev, nil
			}
		case strings.HasPrefix(line, "id: "):
			ev.ID, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			have = true
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
			have = true
		case strings.HasPrefix(line, "data: "):
			// Multi-line data concatenates with newlines, per the SSE spec.
			if ev.Data != nil {
				ev.Data = append(ev.Data, '\n')
			}
			ev.Data = append(ev.Data, strings.TrimPrefix(line, "data: ")...)
			have = true
		}
	}
	if err := s.sc.Err(); err != nil {
		return Event{}, err
	}
	if have {
		return ev, nil // final event unterminated by a blank line
	}
	return Event{}, io.EOF
}

// Close releases the stream's connection.
func (s *Stream) Close() error { return s.body.Close() }
