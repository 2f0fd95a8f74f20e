package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/results"
	"whirlpool/internal/server"
)

// cellID is one row's grid identity plus its content-address.
type cellID struct {
	App, Scheme, Key string
	Mix              bool
}

func cellIDs(rows []experiments.SweepRow) []cellID {
	out := make([]cellID, len(rows))
	for i, r := range rows {
		out[i] = cellID{App: r.App, Scheme: r.Scheme, Key: r.Key, Mix: r.Mix}
	}
	return out
}

// TestGridMatchesDaemon sends the same grid requests through
// whirlsweep's resolution and through whirld's POST /v1/sweeps. Both
// must accept or reject each request alike (rejections with the same
// message), and accepted ones must give the same ordered cells with the
// same keys. Every request has scale 0, which both front ends must run
// as scale 1, so their cells share store rows.
//
// No cell is simulated. The daemon is a coordinator whose one worker
// rejects every shard, and whirlsweep's grid runs through Sweep with a
// remote executor that fails: either way Sweep returns every cell of
// the grid, in grid order, as a keyed error row.
func TestGridMatchesDaemon(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"bad_request","message":"this worker rejects every shard"}}`)
	}))
	defer worker.Close()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// The worker's lease outlives the test.
	srv, err := server.New(server.Config{Store: store, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Fleet().Register(worker.URL, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Each case's spec apps get names of their own, so "not registered
	// yet" holds when both front ends resolve it.
	specJSON := func(prefix string, mixes bool) string {
		s := fmt.Sprintf(`{"apps":[{"name":"%[1]s-a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]},`+
			`{"name":"%[1]s-b","structs":[{"name":"y","bytes":"2MB","pattern":"seq"}]}]`, prefix)
		if mixes {
			s += fmt.Sprintf(`,"mixes":[{"name":"%[1]s-m1","apps":["%[1]s-a","delaunay"]},{"name":"%[1]s-m2","apps":["%[1]s-b","%[1]s-a","MIS"]}]`, prefix)
		}
		return s + "}"
	}
	cases := []struct {
		name                 string
		apps, mixes, schemes string // whirlsweep flags; the body lists the same names
		spec                 string
		accept               bool
	}{
		{name: "default apps", schemes: "snuca-lru", accept: true},
		{name: "default apps with a spec", schemes: "jigsaw,snuca-lru", spec: specJSON("dflt", false), accept: true},
		{name: "all with unregistered spec apps", apps: "all", schemes: "whirlpool", spec: specJSON("unreg", false), accept: true},
		{name: "mixes only", mixes: "mix-m2,mix-m1", schemes: "all", spec: specJSON("mix", true), accept: true},
		{name: "all mixes and apps", apps: "delaunay", mixes: "all", spec: specJSON("both", true), accept: true},
		{name: "all mixes when none are defined", mixes: "all", spec: specJSON("nomix", false)},
		{name: "duplicate app", apps: "delaunay,MIS,delaunay", schemes: "jigsaw"},
		{name: "duplicate scheme", apps: "delaunay", schemes: "jigsaw,jigsaw"},
		{name: "unknown app", apps: "nosuchapp", schemes: "jigsaw"},
		{name: "unknown scheme", apps: "delaunay", schemes: "bogus"},
		{name: "undefined mix", mixes: "nosuchmix", spec: specJSON("undef", true)},
		{name: "mix without a spec", mixes: "m"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specPath := ""
			if tc.spec != "" {
				specPath = filepath.Join(t.TempDir(), "spec.json")
				if err := os.WriteFile(specPath, []byte(tc.spec), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			h, cfg, files, cliErr := resolveGrid(tc.apps, tc.mixes, tc.schemes, specPath, 0)

			body := map[string]any{"scale": 0}
			for field, list := range map[string]string{"apps": tc.apps, "mixes": tc.mixes, "schemes": tc.schemes} {
				if list != "" {
					body[field] = strings.Split(list, ",")
				}
			}
			if tc.spec != "" {
				body["spec"] = json.RawMessage(tc.spec)
			}
			status, resp := post(t, ts.URL+"/v1/sweeps", body)

			if (cliErr == nil) != tc.accept || (status == http.StatusAccepted) != tc.accept {
				t.Fatalf("whirlsweep err = %v, whirld %d %v; want accepted = %t", cliErr, status, resp, tc.accept)
			}
			if !tc.accept {
				env, _ := resp["error"].(map[string]any)
				if status != http.StatusBadRequest || env["code"] != "bad_request" || env["message"] != cliErr.Error() {
					t.Fatalf("whirld rejected with %d %v, whirlsweep with %q", status, resp, cliErr)
				}
				return
			}

			for _, f := range files {
				if _, err := f.Register(); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Remote = func(context.Context, []experiments.CellRef, func(experiments.CellRef, experiments.SweepRow)) error {
				return errors.New("no fleet")
			}
			cliRows, _ := h.Sweep(cfg)
			daemonRows := jobRows(t, ts.URL, resp["id"].(string))

			if resp["total"] != float64(len(cliRows)) {
				t.Errorf("whirld total = %v, whirlsweep grid has %d cells", resp["total"], len(cliRows))
			}
			cli, daemon := cellIDs(cliRows), cellIDs(daemonRows)
			if !reflect.DeepEqual(cli, daemon) {
				t.Fatalf("cells differ:\nwhirlsweep %v\nwhirld     %v", cli, daemon)
			}
			for _, c := range cli {
				if c.Key == "" {
					t.Fatalf("cell %v has no key", c)
				}
			}
		})
	}
}

// post sends body as JSON and decodes the JSON answer.
func post(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// jobRows waits for a job to finish and returns its grid-ordered rows.
func jobRows(t *testing.T, base, id string) []experiments.SweepRow {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/rows?format=json")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var rows []experiments.SweepRow
			err := json.NewDecoder(resp.Body).Decode(&rows)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("rows of job %s: status %d", id, resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
