package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary headers to ParseTraceparent, which
// runs on every request the daemon serves. It must never panic, and an
// accepted header must yield a valid context that Traceparent renders
// back with the same IDs (version and flags normalize to 00 and 01).
//
//	go test -fuzz FuzzParseTraceparent -fuzztime 5s ./internal/obs/
func FuzzParseTraceparent(f *testing.F) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, h := range []string{
		valid,
		strings.ToUpper(valid),
		"ff" + valid[2:],
		"42" + valid[2:] + "-future-fields",
		valid + "-trailing",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16) + "-01",
		"",
		"00-4bf92f",
		valid + strings.Repeat("-0", 64),
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", h, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", h, sc)
		}
		out := Traceparent(sc)
		back, ok := ParseTraceparent(out)
		if !ok || back != sc {
			t.Fatalf("Traceparent(%+v) = %q parses back as %+v (ok=%v)", sc, out, back, ok)
		}
		if out[3:52] != strings.ToLower(h[3:52]) {
			t.Fatalf("IDs changed: parsed %q, rendered %q", h, out)
		}
	})
}
