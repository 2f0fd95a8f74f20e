package server

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"whirlpool/internal/experiments"
)

// promLabelRE matches one label pair of an exposition sample line.
var promLabelRE = regexp.MustCompile(`([a-z_]+)="(?:[^"\\]|\\.)*"`)

// promFamilies is every family GET /metrics?format=prom exposes, with
// its type and label names. The families before whirld_endpoint_limit
// are the ones the daemon has always exposed; a renamed or retyped
// family breaks scrapers, so this list is literal, not derived from
// metricTable.
var promFamilies = map[string]string{
	"whirld_uptime_seconds":                      "gauge",
	"whirld_goroutines":                          "gauge",
	"whirld_spans_total":                         "counter",
	"whirld_shed_total":                          "counter",
	"whirld_jobs_submitted_total":                "counter",
	"whirld_jobs_done_total":                     "counter",
	"whirld_jobs_failed_total":                   "counter",
	"whirld_jobs_canceled_total":                 "counter",
	"whirld_shard_jobs_total":                    "counter",
	"whirld_rows_served_total":                   "counter",
	"whirld_rows_computed_total":                 "counter",
	"whirld_row_marshal_errors_total":            "counter",
	"whirld_dispatch_redispatched_total":         "counter",
	"whirld_dispatch_workers_lost_total":         "counter",
	"whirld_dispatch_rebalances_total":           "counter",
	"whirld_fleet_alive":                         "gauge",
	"whirld_fleet_dead":                          "gauge",
	"whirld_fleet_registrations_total":           "counter",
	"whirld_fleet_heartbeats_total":              "counter",
	"whirld_fleet_leases_expired_total":          "counter",
	"whirld_fleet_departures_total":              "counter",
	"whirld_store_hits_total":                    "counter",
	"whirld_store_misses_total":                  "counter",
	"whirld_store_puts_total":                    "counter",
	"whirld_store_corrupt_rows_total":            "counter",
	"whirld_store_records":                       "gauge",
	"whirld_endpoint_requests_total":             "counter{endpoint}",
	"whirld_endpoint_inflight":                   "gauge{endpoint}",
	"whirld_endpoint_shed_total":                 "counter{endpoint}",
	"whirld_endpoint_latency_ms":                 "gauge{endpoint,quantile}",
	"whirld_endpoint_latency_observations_total": "counter{endpoint}",
	"whirld_worker_cells_total":                  "counter{worker,kind}",
	"whirld_worker_dead":                         "gauge{worker}",

	"whirld_endpoint_limit":           "gauge{endpoint}",
	"whirld_endpoint_latency_mean_ms": "gauge{endpoint}",
}

// TestMetricsFormatsAgree renders /metrics as JSON and as Prometheus
// text from one server that has served a sweep and dispatched to a
// worker whose URL needs label escaping. Every metricTable row must
// appear in both; memstats is the only tree-only entry.
func TestMetricsFormatsAgree(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	id, _ := postSweep(t, ts, smallSweep)["id"].(string)
	awaitJob(t, ts, id)
	const worker = `http://w"\:1`
	srv.recordWorkerStats([]experiments.WorkerStats{{Worker: worker, Computed: 2, Dead: true}})

	var tree map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &tree); code != http.StatusOK {
		t.Fatalf("json metrics: %d", code)
	}
	leaves := map[string]bool{}
	collectLeaves(nil, tree, leaves)

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	prom := string(body)

	helps, types := map[string]int{}, map[string]int{}
	families := map[string]string{} // family -> TYPE, then its label names
	labelNames := map[string]string{}
	samples := map[string]bool{} // sample lines without their values
	for _, line := range strings.Split(strings.TrimSuffix(prom, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			helps[f[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			types[f[2]]++
			families[f[2]] = strings.Join(f[3:], " ")
		default:
			series := line[:strings.LastIndexByte(line, ' ')]
			samples[series] = true
			name := series[:strings.IndexAny(series+"{", "{")]
			var names []string
			for _, m := range promLabelRE.FindAllStringSubmatch(series[len(name):], -1) {
				names = append(names, m[1])
			}
			set := ""
			if len(names) > 0 {
				set = "{" + strings.Join(names, ",") + "}"
			}
			if prev, seen := labelNames[name]; seen && prev != set {
				t.Errorf("family %s mixes label sets %s and %s", name, prev, set)
			}
			labelNames[name] = set
		}
	}
	for fam := range families {
		if helps[fam] != 1 || types[fam] != 1 {
			t.Errorf("family %s has %d HELP and %d TYPE lines, want one each", fam, helps[fam], types[fam])
		}
		families[fam] += labelNames[fam]
	}
	for fam, want := range promFamilies {
		if got, ok := families[fam]; !ok {
			t.Errorf("prom output lacks family %s", fam)
		} else if got != want {
			t.Errorf("family %s = %s, want %s", fam, got, want)
		}
	}
	for fam := range families {
		if _, ok := promFamilies[fam]; !ok {
			t.Errorf("prom output has undeclared family %s", fam)
		}
	}
	if !strings.Contains(prom, `worker="http://w\"\\:1"`) {
		t.Errorf("worker label not escaped:\n%s", prom)
	}

	var epNames []string
	for _, ep := range srv.endpointsByName() {
		epNames = append(epNames, ep.name)
	}
	for _, r := range metricTable {
		names := []string{""}
		switch {
		case strings.Contains(r.path, "{endpoint}"):
			names = epNames
		case strings.Contains(r.path, "{worker}"):
			names = []string{worker}
		}
		for _, name := range names {
			var path []string
			for _, seg := range strings.Split(r.path, ".") {
				if seg[0] == '{' {
					seg = name
				}
				path = append(path, seg)
			}
			key := strings.Join(path, "\x00")
			if !leaves[key] {
				t.Errorf("json tree lacks %v", path)
			}
			delete(leaves, key)

			var kv []string
			for _, l := range r.labels {
				k, v, fixed := strings.Cut(l, "=")
				if !fixed {
					v = name
				}
				kv = append(kv, k, v)
			}
			if series := r.prom + promLabels(kv...); !samples[series] {
				t.Errorf("prom output lacks %s", series)
			}
		}
	}
	for leaf := range leaves {
		if !strings.HasPrefix(leaf, "memstats\x00") {
			t.Errorf("json tree has %q, which is in no metricTable row", strings.ReplaceAll(leaf, "\x00", "."))
		}
	}
}

// TestMetricsUnknownFormat: ?format=flat is gone, and the 400 names the
// formats that remain.
func TestMetricsUnknownFormat(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics?format=flat")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != errBadRequest ||
		!strings.Contains(env.Error.Message, "json") || !strings.Contains(env.Error.Message, "prom") {
		t.Fatalf("?format=flat = %d %+v, want a 400 naming json and prom", resp.StatusCode, env.Error)
	}
}

// collectLeaves adds the path of every non-object value under node to
// out, segments joined by NUL (worker URLs contain dots).
func collectLeaves(prefix []string, node map[string]any, out map[string]bool) {
	for k, v := range node {
		path := append(append([]string(nil), prefix...), k)
		if child, ok := v.(map[string]any); ok && len(child) > 0 {
			collectLeaves(path, child, out)
		} else {
			out[strings.Join(path, "\x00")] = true
		}
	}
}
