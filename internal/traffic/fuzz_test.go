package traffic

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseTraffic feeds arbitrary bytes to Parse. Parse must never
// panic, and an accepted spec must encode and re-parse to the same
// encoding, resolve a positive run length, and give every class a
// schedule whose offsets start at or after zero and never go back.
func FuzzParseTraffic(f *testing.F) {
	f.Add([]byte(validSpec()))
	f.Add([]byte(`{"clients":[{"id":"a","op":"jobs","rate":1}]}`))
	f.Add([]byte(`{"name":"n","duration_s":0.5,"seed":1,"clients":[{"id":"b","op":"jobs","rate":3,"arrival":"bursty","burst":{"size":2}}]}`))
	f.Add([]byte(`{"clients":[{"id":"s","op":"sweep","rate":0.5,"wait":true,"sweep":{"apps":["mcf"]}}]}`))
	f.Add([]byte(`{"clients":[{"id":"r","op":"results","rate":9,"params":{},"slo":{"p95_ms":3}}]}`))
	f.Add([]byte(`{"clients":[{"id":"a","op":"jobs","rate":1,"arival":"poisson"}]}`))
	f.Add([]byte(`{"clients":[{"id":"a","op":"jobs","rate":-1}]}`))
	f.Add([]byte(`{"clients":[]}`))
	f.Add([]byte(`[]`))
	// Gaps and run lengths past time.Duration's range.
	f.Add([]byte(`{"clients":[{"id":"a","op":"jobs","rate":1e-300}]}`))
	f.Add([]byte(`{"clients":[{"id":"a","op":"jobs","rate":1e-12,"arrival":"poisson"}]}`))
	f.Add([]byte(`{"clients":[{"id":"a","op":"jobs","rate":1e-9,"arrival":"bursty","burst":{"size":1000000000}}]}`))
	f.Add([]byte(`{"duration_s":1e300,"clients":[{"id":"a","op":"jobs","rate":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal of an accepted spec: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("Parse(Marshal(s)): %v\n%s", err, enc)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("encoding changed on a round trip:\n%s\n%s", enc, again)
		}
		if d := s.Duration(0); d <= 0 {
			t.Fatalf("Duration = %v for duration_s %g", d, s.DurationS)
		}
		for i := range s.Clients {
			ar := newArrivals(s.Seed, &s.Clients[i])
			prev := ar.next()
			if prev < 0 {
				t.Fatalf("client %q: first arrival at %v", s.Clients[i].ID, prev)
			}
			for range 64 {
				off := ar.next()
				if off < prev {
					t.Fatalf("client %q: arrival at %v after one at %v", s.Clients[i].ID, off, prev)
				}
				prev = off
			}
		}
	})
}
