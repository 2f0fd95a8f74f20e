package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newClient(t *testing.T, h http.Handler) *Client {
	t.Helper()
	c, _ := countConns(t, h)
	return c
}

func TestNewRejectsBadBases(t *testing.T) {
	for _, base := range []string{"", "   ", "localhost:8080", "ftp://x"} {
		if _, err := New(base, nil); err == nil {
			t.Errorf("New(%q) succeeded, want error", base)
		}
	}
	c, err := New("http://x:1/", nil)
	if err != nil || c.Base() != "http://x:1" {
		t.Fatalf("New trailing slash: base %q, err %v", c.Base(), err)
	}
}

// TestErrorEnvelope: the envelope decodes into code+message, and any
// other body (a bare-string error, plain text) falls back to raw text —
// never a decode failure.
func TestErrorEnvelope(t *testing.T) {
	cases := []struct {
		name, body  string
		status      int
		retryAfter  string
		wantCode    string
		wantMessage string
		wantRetry   time.Duration
		temporary   bool
	}{
		{
			name: "envelope", status: 400,
			body:     `{"error":{"code":"bad_request","message":"scale must be >= 0"}}`,
			wantCode: "bad_request", wantMessage: "scale must be >= 0",
		},
		{
			name: "envelope with retry-after", status: 503, retryAfter: "2",
			body:     `{"error":{"code":"queue_full","message":"job queue is full"}}`,
			wantCode: "queue_full", wantMessage: "job queue is full",
			wantRetry: 2 * time.Second, temporary: true,
		},
		{
			name: "shed 429", status: 429, retryAfter: "1",
			body:     `{"error":{"code":"overloaded","message":"results concurrency limit"}}`,
			wantCode: "overloaded", wantMessage: "results concurrency limit",
			wantRetry: time.Second, temporary: true,
		},
		{
			name: "legacy flat string", status: 404,
			body:        `{"error":"no such job \"j9\""}`,
			wantMessage: `{"error":"no such job \"j9\""}`,
		},
		{
			name: "plain text body", status: 500,
			body:        "internal chaos\n",
			wantMessage: "internal chaos",
		},
		{
			name: "empty body", status: 502,
			wantMessage: "Bad Gateway",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			}))
			err := c.GetJSON(context.Background(), "/v1/jobs/j9", &struct{}{})
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %v is not *Error", err)
			}
			if ae.Status != tc.status || ae.Code != tc.wantCode || ae.Message != tc.wantMessage {
				t.Fatalf("got %+v, want status %d code %q message %q", ae, tc.status, tc.wantCode, tc.wantMessage)
			}
			if ae.RetryAfter != tc.wantRetry {
				t.Fatalf("RetryAfter = %v, want %v", ae.RetryAfter, tc.wantRetry)
			}
			if ae.Temporary() != tc.temporary {
				t.Fatalf("Temporary() = %v, want %v", ae.Temporary(), tc.temporary)
			}
		})
	}
}

func TestPostJSONRoundTrip(t *testing.T) {
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("got %s with Content-Type %q", r.Method, r.Header.Get("Content-Type"))
		}
		var in map[string]any
		if err := readJSON(r.Body, &in); err != nil {
			t.Errorf("body: %v", err)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j1","echo":%q}`, in["app"])
	}))
	var out struct {
		ID   string `json:"id"`
		Echo string `json:"echo"`
	}
	err := c.PostJSON(context.Background(), "/v1/sweeps", map[string]string{"app": "delaunay"}, &out)
	if err != nil || out.ID != "j1" || out.Echo != "delaunay" {
		t.Fatalf("out %+v, err %v", out, err)
	}
}

func readJSON(r io.Reader, out any) error {
	return json.NewDecoder(r).Decode(out)
}

// TestStream parses id/event/data framing, multi-line data, and EOF.
func TestStream(t *testing.T) {
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "id: 1\nevent: row\ndata: {\"app\":\"delaunay\"}\n\n")
		io.WriteString(w, "event: note\ndata: line1\ndata: line2\n\n")
		io.WriteString(w, "event: done\ndata: {}\n\n")
	}))
	st, err := c.Stream(context.Background(), "/v1/jobs/j1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ev, err := st.Next()
	if err != nil || ev.ID != 1 || ev.Name != "row" || string(ev.Data) != `{"app":"delaunay"}` {
		t.Fatalf("event 1 = %+v, err %v", ev, err)
	}
	ev, err = st.Next()
	if err != nil || ev.Name != "note" || string(ev.Data) != "line1\nline2" {
		t.Fatalf("event 2 = %+v, err %v", ev, err)
	}
	ev, err = st.Next()
	if err != nil || ev.Name != "done" {
		t.Fatalf("event 3 = %+v, err %v", ev, err)
	}
	if _, err = st.Next(); err != io.EOF {
		t.Fatalf("after last event: %v, want io.EOF", err)
	}
}

// TestStreamError: a non-200 on the stream endpoint decodes the
// envelope like any other call.
func TestStreamError(t *testing.T) {
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":{"code":"not_found","message":"no such job"}}`)
	}))
	_, err := c.Stream(context.Background(), "/v1/jobs/nope/stream")
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != "not_found" || ae.Status != 404 {
		t.Fatalf("stream error = %v", err)
	}
}

// countConns serves h on loopback and returns a client for it and a
// function reporting how many TCP connections the server has accepted.
func countConns(t *testing.T, h http.Handler) (*Client, func() int64) {
	t.Helper()
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, conns.Load
}

// sized serves body with its Content-Length, as whirld does.
func sized(body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}
}

// jsonBody returns a JSON object padded with n bytes, newline-terminated
// like whirld's bodies.
func jsonBody(n int) []byte {
	return []byte(`{"pad":"` + strings.Repeat("x", n) + "\"}\n")
}

// TestDoNilOutDrainsBody: Do with a nil out reads a 2xx body to EOF,
// with or without a Content-Length, so back-to-back calls share one
// connection; a body over the cap is an error.
func TestDoNilOutDrainsBody(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 100<<10)
	for name, h := range map[string]http.HandlerFunc{
		"sized": sized(big),
		"chunked": func(w http.ResponseWriter, r *http.Request) {
			w.Write(big)
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, conns := countConns(t, h)
			for range 10 {
				if err := c.Do(context.Background(), http.MethodGet, "/healthz", nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			if n := conns(); n != 1 {
				t.Fatalf("10 calls opened %d connections, want 1", n)
			}
		})
	}
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, maxBody+1))
	}))
	if err := c.Do(context.Background(), http.MethodGet, "/big", nil, nil); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Do(nil) on a body over the cap: %v, want a cap error", err)
	}
}

// TestConnectionReuse: every 2xx body is read to EOF, so ten calls with
// bodies of 100 KiB and more keep one keep-alive connection.
func TestConnectionReuse(t *testing.T) {
	body := jsonBody(145 << 10)
	calls := map[string]func(*Client) error{
		"Do(nil)": func(c *Client) error {
			return c.Do(context.Background(), http.MethodGet, "/v1/results", nil, nil)
		},
		"Do(&out)": func(c *Client) error {
			var out struct{ Pad string }
			if err := c.GetJSON(context.Background(), "/v1/results", &out); err != nil {
				return err
			}
			if len(out.Pad) != 145<<10 {
				return fmt.Errorf("decoded %d bytes of padding", len(out.Pad))
			}
			return nil
		},
		"GetRaw": func(c *Client) error {
			got, err := c.GetRaw(context.Background(), "/v1/results")
			if err == nil && !bytes.Equal(got, body) {
				err = fmt.Errorf("GetRaw returned %d bytes, want the %d sent", len(got), len(body))
			}
			return err
		},
	}
	// The body's closing newline comes in a later packet, as it can from
	// any server: a reader that stops after the JSON value misses it.
	split := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:len(body)-1])
		w.(http.Flusher).Flush()
		time.Sleep(5 * time.Millisecond)
		w.Write(body[len(body)-1:])
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			c, conns := countConns(t, http.HandlerFunc(split))
			for range 10 {
				if err := call(c); err != nil {
					t.Fatal(err)
				}
			}
			if n := conns(); n != 1 {
				t.Fatalf("10 calls opened %d connections, want 1", n)
			}
		})
	}
}

// TestDoRejectsTrailingBytes: a 2xx body must hold one JSON value.
func TestDoRejectsTrailingBytes(t *testing.T) {
	c := newClient(t, sized([]byte(`{"id":"j1"} {"id":"j2"}`)))
	var out struct{ ID string }
	if err := c.GetJSON(context.Background(), "/v1/jobs/j1", &out); err == nil {
		t.Fatalf("decoded %+v from a body with trailing bytes, want an error", out)
	}
}

// TestGetRawCap: GetRaw returns a body of exactly the cap and fails on
// one byte more, whether or not the server sent a Content-Length. A
// Content-Length over the cap fails before the body is read: here the
// server sends one byte of it, so a read would end in an unexpected EOF.
func TestGetRawCap(t *testing.T) {
	cases := []struct {
		name    string
		h       http.HandlerFunc
		wantLen int // -1: a cap error
	}{
		{"sized at the cap", sized(make([]byte, maxBody)), maxBody},
		{"sized over the cap", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(maxBody+1))
			w.Write([]byte("x"))
		}, -1},
		{"chunked at the cap", func(w http.ResponseWriter, r *http.Request) {
			w.Write(make([]byte, maxBody))
		}, maxBody},
		{"chunked over the cap", func(w http.ResponseWriter, r *http.Request) {
			w.Write(make([]byte, maxBody+1))
		}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClient(t, tc.h)
			got, err := c.GetRaw(context.Background(), "/v1/jobs/j1/trace")
			if tc.wantLen < 0 {
				if err == nil || !strings.Contains(err.Error(), "cap") {
					t.Fatalf("got %d bytes, err %v; want a cap error", len(got), err)
				}
				return
			}
			if err != nil || len(got) != tc.wantLen {
				t.Fatalf("got %d bytes, err %v; want %d bytes", len(got), err, tc.wantLen)
			}
		})
	}
}

// BenchmarkGetRaw reads a ~25 KB body with a Content-Length from a
// loopback server, the size of whirld's answer to the readers'
// /v1/results?limit=50 query.
func BenchmarkGetRaw(b *testing.B) {
	body := jsonBody(25 << 10)
	ts := httptest.NewServer(sized(body))
	defer ts.Close()
	c, err := New(ts.URL, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		if _, err := c.GetRaw(context.Background(), "/v1/results"); err != nil {
			b.Fatal(err)
		}
	}
}
