package main

import (
	"net"
	"strings"
	"testing"
)

func TestResolveWorkersURLs(t *testing.T) {
	urls, err := resolveWorkers("http://a:1, http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] != "http://a:1" {
		t.Fatalf("urls = %v", urls)
	}
	for _, bad := range []string{"not-a-url", "8"} {
		if _, err := resolveWorkers(bad); err == nil ||
			!strings.Contains(err.Error(), "not a worker URL") {
			t.Fatalf("resolveWorkers(%q) = %v, want a not-a-worker-URL error", bad, err)
		}
	}
	if urls, err := resolveWorkers(""); urls != nil || err != nil {
		t.Fatalf("empty flag: %v, %v", urls, err)
	}
}

type fakeAddr string

func (a fakeAddr) Network() string { return "tcp" }
func (a fakeAddr) String() string  { return string(a) }

func TestAdvertiseURL(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:8080": "http://127.0.0.1:8080",
		"10.0.0.5:9000":  "http://10.0.0.5:9000",
		"0.0.0.0:8080":   "http://127.0.0.1:8080",
		"[::]:8080":      "http://127.0.0.1:8080",
		"weird":          "http://weird",
	}
	for in, want := range cases {
		if got := advertiseURL(net.Addr(fakeAddr(in))); got != want {
			t.Errorf("advertiseURL(%q) = %q, want %q", in, got, want)
		}
	}
}
