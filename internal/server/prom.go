package server

import (
	"fmt"
	"io"
	"strings"
)

// promWriter writes Prometheus text exposition format 0.0.4 (GET
// /metrics?format=prom). metricsSnap.writeProm drives it from
// metricTable; each endpoint latency histogram is exposed as
// per-quantile gauges (whirld_endpoint_latency_ms{endpoint,quantile})
// plus an observation counter — the daemon keeps quantile snapshots,
// not raw buckets, so a summary-style surface is the honest rendering.
// `whirltool promlint` validates the output in CI (obs-smoke).
type promWriter struct{ w io.Writer }

// head writes the HELP + TYPE preamble for one metric family.
func (p promWriter) head(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, promEscapeHelp(help), name, typ)
}

// sample writes one sample line; labels is pre-rendered ("{...}" or "").
func (p promWriter) sample(name, labels string, v float64) {
	fmt.Fprintf(p.w, "%s%s %s\n", name, labels, promFloat(v))
}

// promFloat renders a sample value: integral values without an
// exponent, everything else via %g.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// promLabels renders k1,v1,k2,v2,... as a label set with escaped
// values, or "" for no labels.
func promLabels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(promEscapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promEscapeLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func promEscapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promEscapeHelp escapes HELP text: backslash and newline only.
func promEscapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}
