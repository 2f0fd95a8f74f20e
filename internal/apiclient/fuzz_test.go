package apiclient

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// FuzzErrorEnvelope feeds arbitrary statuses, Retry-After headers and
// bodies to decodeError. It must never panic; the error keeps the status;
// a body that is an envelope with a message yields its code and message,
// and any other body yields no code and a non-empty message of at most
// 512 bytes plus the truncation mark; a Retry-After hint is never
// negative.
func FuzzErrorEnvelope(f *testing.F) {
	f.Add(400, "", []byte(`{"error":{"code":"bad_request","message":"scale must be >= 0"}}`))
	f.Add(503, "2", []byte(`{"error":{"code":"queue_full","message":"job queue is full"}}`))
	f.Add(429, "1", []byte(`{"error":{"code":"overloaded","message":"results concurrency limit"}}`))
	f.Add(404, "", []byte(`{"error":"no such job \"j9\""}`))
	f.Add(500, "-3", []byte("internal chaos\n"))
	f.Add(502, "soon", []byte{})
	f.Add(503, "99999999999", []byte(`{"error":{"code":"","message":"draining"}}`))
	f.Add(500, "", []byte(strings.Repeat("x", 600)))
	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte) {
		resp := &http.Response{StatusCode: status, Header: http.Header{}}
		if retryAfter != "" {
			resp.Header.Set("Retry-After", retryAfter)
		}
		e := decodeError(resp, body)
		if e.Status != status {
			t.Fatalf("Status = %d, want %d", e.Status, status)
		}
		if e.RetryAfter < 0 {
			t.Fatalf("RetryAfter = %v from %q", e.RetryAfter, retryAfter)
		}
		var env envelope
		if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
			if e.Code != env.Error.Code || e.Message != env.Error.Message {
				t.Fatalf("envelope decoded as (%q, %q), want (%q, %q)", e.Code, e.Message, env.Error.Code, env.Error.Message)
			}
			return
		}
		if e.Code != "" {
			t.Fatalf("code %q from a body that is not an envelope", e.Code)
		}
		if e.Message == "" || len(e.Message) > 512+len("...") {
			t.Fatalf("message of %d bytes from a %d-byte body", len(e.Message), len(body))
		}
		_ = e.Error()
	})
}
