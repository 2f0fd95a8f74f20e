package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// One span, one JSON line. This is the wire format of
// GET /v1/jobs/{id}/trace and of the coordinator<-worker stitch:
//
//	{"trace":"…32hex…","span":"…16hex…","parent":"…16hex…",
//	 "name":"sim.run","start_us":1712345678901234,"dur_us":1234,
//	 "attrs":{"app":"delaunay","mmap":true}}
//
// start_us is wall-clock unix microseconds (cross-node alignable);
// dur_us is the monotonic duration in microseconds. "parent" is
// omitted on root spans. Encoding is hand-rolled append-style so it
// stays reflection- and allocation-free.

// AppendSpanJSON appends the one-line JSON encoding of s (no trailing
// newline) to dst and returns it.
//
//whirl:zeroalloc
func AppendSpanJSON(dst []byte, s *Span) []byte {
	dst = append(dst, `{"trace":"`...)
	dst = appendHex(dst, s.Trace[:])
	dst = append(dst, `","span":"`...)
	dst = appendHex(dst, s.ID[:])
	if !s.Parent.IsZero() {
		dst = append(dst, `","parent":"`...)
		dst = appendHex(dst, s.Parent[:])
	}
	dst = append(dst, `","name":`...)
	dst = appendJSONString(dst, s.Name)
	dst = append(dst, `,"start_us":`...)
	dst = strconv.AppendInt(dst, s.Start.UnixMicro(), 10)
	dst = append(dst, `,"dur_us":`...)
	dst = strconv.AppendInt(dst, s.Dur.Microseconds(), 10)
	if s.nattrs > 0 {
		dst = append(dst, `,"attrs":{`...)
		for i := 0; i < s.nattrs; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			a := &s.attrs[i]
			dst = appendJSONString(dst, a.Key)
			dst = append(dst, ':')
			switch a.kind {
			case attrStr:
				dst = appendJSONString(dst, a.str)
			case attrInt:
				dst = strconv.AppendInt(dst, a.num, 10)
			case attrBool:
				if a.num != 0 {
					dst = append(dst, "true"...)
				} else {
					dst = append(dst, "false"...)
				}
			default:
				dst = append(dst, "null"...)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendJSONString writes a quoted JSON string. Span names and attr
// keys are plain ASCII in practice; the escape path handles the rest.
//
//whirl:zeroalloc
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c >= 0x20:
			dst = append(dst, c)
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(dst, '"')
}

// spanJSON is the decode-side shape; decoding uses encoding/json (the
// stitch and tooling paths are cold).
type spanJSON struct {
	Trace   string         `json:"trace"`
	Span    string         `json:"span"`
	Parent  string         `json:"parent"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
}

func hexDecode(dst, src []byte) bool {
	if len(src) != 2*len(dst) {
		return false
	}
	for i := range dst {
		b, ok := hexByte(src[2*i], src[2*i+1])
		if !ok {
			return false
		}
		dst[i] = b
	}
	return true
}

// ParseSpan decodes one JSON line produced by AppendSpanJSON.
func ParseSpan(line []byte) (Span, error) {
	var raw spanJSON
	if err := json.Unmarshal(line, &raw); err != nil {
		return Span{}, err
	}
	var s Span
	if !hexDecode(s.Trace[:], []byte(raw.Trace)) {
		return Span{}, fmt.Errorf("bad trace id %q", raw.Trace)
	}
	if !hexDecode(s.ID[:], []byte(raw.Span)) {
		return Span{}, fmt.Errorf("bad span id %q", raw.Span)
	}
	if raw.Parent != "" {
		if !hexDecode(s.Parent[:], []byte(raw.Parent)) {
			return Span{}, fmt.Errorf("bad parent id %q", raw.Parent)
		}
	}
	s.Name = raw.Name
	s.Start = time.UnixMicro(raw.StartUS)
	s.Dur = time.Duration(raw.DurUS) * time.Microsecond
	for k, v := range raw.Attrs {
		switch v := v.(type) {
		case string:
			s.Set(Str(k, v))
		case bool:
			s.Set(Bool(k, v))
		case float64:
			s.Set(Int(k, int64(v)))
		}
	}
	return s, nil
}

// ParseSpans decodes a JSONL stream of spans, skipping blank lines.
// One malformed line fails the whole parse: trace files are
// machine-written, so damage means the source is not trustworthy.
func ParseSpans(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		s, err := ParseSpan(b)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
