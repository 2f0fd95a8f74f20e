package main

import (
	"net"
	"strings"
	"testing"

	"whirlpool/internal/server"
)

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

func TestInflightUsageNamesEveryEndpoint(t *testing.T) {
	_, list, ok := strings.Cut(inflightUsage(), "endpoints: ")
	if !ok {
		t.Fatalf("usage lists no endpoints: %q", inflightUsage())
	}
	named := map[string]bool{}
	for _, n := range strings.Split(list, ", ") {
		named[n] = true
	}
	for _, n := range server.EndpointNames() {
		if !named[n] {
			t.Errorf("-inflight help omits endpoint %q: %q", n, inflightUsage())
		}
	}
}
