package spec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"whirlpool/internal/workloads"
)

const validSpec = `{
  "version": 1,
  "name": "test-set",
  "apps": [
    {
      "name": "kvtest",
      "structs": [
        {"name": "hot", "bytes": "2MB", "pattern": "zipf", "param": 0.9, "write_frac": 0.3},
        {"name": "log", "bytes": "512KB", "pattern": "seq", "write_frac": 0.9},
        {"name": "raw", "bytes": 131072, "pattern": "rand"}
      ],
      "phases": [
        {"len": 0.6, "weights": [0.6, 0.3, 0.1]},
        {"len": 0.4, "weights": [0.2, 0.6, 0.2], "patterns": ["inherit", "randws", "inherit"], "params": [0, 0.5, 0]}
      ],
      "period_frac": 0.5,
      "manual_pools": [[0], [1, 2]]
    }
  ],
  "mixes": [
    {"name": "duo", "apps": ["kvtest", "delaunay"]}
  ]
}`

func TestParseValid(t *testing.T) {
	f, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	specs := f.Apps
	if len(specs) != 1 {
		t.Fatalf("got %d apps, want 1", len(specs))
	}
	s := specs[0]
	if s.Name != "kvtest" || s.Suite != DefaultSuite {
		t.Errorf("name/suite = %q/%q", s.Name, s.Suite)
	}
	if s.Accesses != DefaultAccesses || s.APKI != DefaultAPKI {
		t.Errorf("defaults not applied: accesses=%d apki=%g", s.Accesses, s.APKI)
	}
	if s.Structs[0].Bytes != 2*1024*1024 || s.Structs[1].Bytes != 512*1024 || s.Structs[2].Bytes != 131072 {
		t.Errorf("byte sizes wrong: %+v", s.Structs)
	}
	if s.Structs[0].Pattern != workloads.Zipf || s.Structs[2].Pattern != workloads.Rand {
		t.Errorf("patterns wrong: %+v", s.Structs)
	}
	if s.Phases[1].Patterns[1] != workloads.RandWS {
		t.Errorf("phase pattern override wrong: %+v", s.Phases[1])
	}
	if len(f.Mixes) != 1 || f.Mixes[0].Name != "duo" || len(f.Mixes[0].Apps) != 2 {
		t.Errorf("mix duo not found or wrong: %+v", f.Mixes)
	}
	// The parsed app must build and stream.
	w := workloads.Build(s, 0.01)
	st := w.Stream(1)
	n := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("parsed app generated no accesses")
	}
}

func TestParseDefaultsPhases(t *testing.T) {
	f, err := Parse([]byte(`{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := f.Apps[0]
	if len(s.Phases) != 1 || len(s.Phases[0].Weights) != 1 || s.Phases[0].Weights[0] != 1 {
		t.Fatalf("default phase wrong: %+v", s.Phases)
	}
}

// The file-level scale applies once, at registration: the parsed apps
// keep their own counts, so encoding a parsed file never scales twice.
func TestParseScale(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	f, err := Parse([]byte(`{"scale":0.5,"apps":[{"name":"spec_scaled","accesses":1000,"structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := f.Apps[0].Accesses; got != 1000 {
		t.Fatalf("parsed accesses = %d, want 1000 (unscaled)", got)
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Register(); err != nil {
		t.Fatal(err)
	}
	if s, _ := workloads.ByName("spec_scaled"); s.Accesses != 500 {
		t.Fatalf("registered accesses = %d, want 500", s.Accesses)
	}
}

// invalidSpecs are malformed spec files and the message each must fail
// with. FuzzParseSpec seeds its corpus from them too.
var invalidSpecs = []struct {
	name, in, wantErr string
}{
	{"bad json", `{`, "unexpected"},
	{"unknown field", `{"apps":[{"name":"a","bytes":1}]}`, "unknown field"},
	{"no apps", `{"apps":[]}`, "no apps"},
	{"empty name", `{"apps":[{"name":"","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`, "name must match"},
	{"bad name", `{"apps":[{"name":"a b","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`, "name must match"},
	{"dup app", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]},{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`, "duplicate app"},
	{"no structs", `{"apps":[{"name":"a","structs":[]}]}`, "at least one struct"},
	{"dup struct", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"},{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`, "duplicate struct"},
	{"tiny struct", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":32,"pattern":"rand"}]}]}`, "at least one cache line"},
	{"bad size", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"4XB","pattern":"rand"}]}]}`, "bad size"},
	{"size overflow", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"99999999999GB","pattern":"rand"}]}]}`, "does not fit 64 bits"},
	{"huge struct", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"128GB","pattern":"rand"}]}]}`, "at most one arena"},
	{"bad pattern", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"zipff"}]}]}`, "unknown pattern"},
	{"inherit struct", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"inherit"}]}]}`, "unknown pattern"},
	{"zipf no param", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"zipf"}]}]}`, "zipf needs param"},
	{"ws bad param", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"wsloop","param":1.5}]}]}`, "param in (0,1]"},
	{"bad writefrac", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand","write_frac":1.5}]}]}`, "write_frac"},
	{"weights len", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"phases":[{"len":1,"weights":[1,2]}]}]}`, "one entry per struct"},
	{"weights zero", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"phases":[{"len":1,"weights":[0]}]}]}`, "sum to > 0"},
	{"phase len", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"phases":[{"len":0,"weights":[1]}]}]}`, "len must be > 0"},
	{"phase zipf param", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"phases":[{"len":1,"weights":[1],"patterns":["zipf"]}]}]}`, "zipf needs param"},
	{"phase bad pattern", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"phases":[{"len":1,"weights":[1],"patterns":["zipff"]}]}]}`, "unknown pattern"},
	{"phase param no patterns", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"wsloop","param":0.5}],"phases":[{"len":1,"weights":[1],"params":[5]}]}]}`, "param in (0,1]"},
	{"pool index", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"manual_pools":[[1]]}]}`, "out of range"},
	{"pool dup", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}],"manual_pools":[[0],[0]]}]}`, "two pools"},
	{"bad apki", `{"apps":[{"name":"a","apki":-1,"structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`, "apki"},
	{"bad period", `{"apps":[{"name":"a","period_frac":2,"structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`, "period_frac"},
	{"mix unknown app", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["nosuch"]}]}`, "unknown app"},
	{"mix too big", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a","a","a","a","a","a","a","a","a","a","a","a","a","a","a","a","a"]}]}`, "1..16"},
	{"dup mix", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"]},{"name":"m","apps":["a"]}]}`, "duplicate mix"},
	{"bad version", `{"version":9,"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}]}`, "unsupported version"},
	{"pins len", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"pins":[0,1]}]}`, "one core per app"},
	{"pins dup", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]},{"name":"b","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a","b"],"pins":[2,2]}]}`, "two apps to one core"},
	{"pins range", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"pins":[16]}]}`, "out of range"},
	{"pins beyond chip", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"pins":[5],"chip":{"preset":"4core"}}]}`, "out of range"},
	{"chip bad preset", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"chip":{"preset":"32core"}}]}`, "unknown chip preset"},
	{"chip preset plus mesh", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"chip":{"preset":"4core","mesh":[5,5]}}]}`, "cannot combine"},
	{"chip mesh len", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"chip":{"mesh":[5]}}]}`, "[width, height]"},
	{"chip mesh range", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"chip":{"mesh":[1,5]}}]}`, "out of range"},
	{"chip too many cores", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"chip":{"mesh":[3,3],"cores":99}}]}`, "do not fit"},
	{"chip tiny bank", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a"],"chip":{"mesh":[5,5],"bank_kb":16}}]}`, "bank_kb"},
	{"mix overflows chip", `{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[{"name":"m","apps":["a","a","a","a","a"],"chip":{"preset":"4core"}}]}`, "1..4"},
}

func TestParseInvalid(t *testing.T) {
	for _, c := range invalidSpecs {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.in))
			if err == nil {
				t.Fatalf("Parse accepted invalid spec")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestParseMixPinsAndChip(t *testing.T) {
	f, err := Parse([]byte(`{
		"apps": [
			{"name": "a", "structs": [{"name": "x", "bytes": "1MB", "pattern": "rand"}]},
			{"name": "b", "structs": [{"name": "x", "bytes": "1MB", "pattern": "seq"}]}
		],
		"mixes": [
			{"name": "pinned", "apps": ["a", "b"], "pins": [0, 3]},
			{"name": "custom", "apps": ["a", "b"], "pins": [1, 5],
			 "chip": {"mesh": [8, 8], "cores": 6, "bank_kb": 256}},
			{"name": "preset", "apps": ["a"], "chip": {"preset": "16core"}}
		]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Mixes[0].BuildChip() != nil {
		t.Fatal("mix without chip should resolve nil (default topology)")
	}
	chip := f.Mixes[1].BuildChip()
	if chip == nil || chip.NCores() != 6 || chip.NBanks() != 64 {
		t.Fatalf("custom chip = %+v", chip)
	}
	if got := chip.BankBytes; got != 256*1024 {
		t.Fatalf("bank bytes = %d, want 256KB", got)
	}
	preset := f.Mixes[2].BuildChip()
	if preset == nil || preset.NCores() != 16 || preset.NBanks() != 81 {
		t.Fatalf("preset chip = %+v", preset)
	}
}

// The built-in suite must survive encode → parse exactly:
// spec files are a complete, lossless description of any workload the
// simulator can run.
func TestBuiltinRoundTrip(t *testing.T) {
	data, err := Encode(Builtin())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse(encoded builtin): %v", err)
	}
	got := f.Apps
	want := workloads.Specs()
	if len(got) != len(want) {
		t.Fatalf("round-trip count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("app %s did not round-trip:\n got: %+v\nwant: %+v", want[i].Name, got[i], want[i])
		}
	}
}

func TestByteSizeMarshal(t *testing.T) {
	cases := []struct {
		in   workloads.ByteSize
		want string
	}{
		{96 * 1024 * 1024, `"96MB"`},
		{512 * 1024, `"512KB"`},
		{1536 * 1024, `"1536KB"`},
		{100, `100`},
	}
	for _, c := range cases {
		out, err := json.Marshal(c.in)
		if err != nil {
			t.Fatalf("Marshal(%d): %v", c.in, err)
		}
		if string(out) != c.want {
			t.Errorf("Marshal(%d) = %s, want %s", c.in, out, c.want)
		}
		var back workloads.ByteSize
		if err := json.Unmarshal(out, &back); err != nil || back != c.in {
			t.Errorf("Unmarshal(%s) = %d, %v; want %d", out, back, err, c.in)
		}
	}
}

func TestRegisterShadowsAndExtends(t *testing.T) {
	t.Cleanup(workloads.SnapshotRegistry())
	f, err := Parse([]byte(`{"apps":[
		{"name":"spec_test_new", "structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]},
		{"name":"delaunay", "accesses": 42000, "structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}
	]}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	names, err := f.Register()
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if len(names) != 2 {
		t.Fatalf("registered %d apps, want 2", len(names))
	}
	if _, ok := workloads.ByName("spec_test_new"); !ok {
		t.Error("new app not resolvable after Register")
	}
	if s, _ := workloads.ByName("delaunay"); s.Accesses != 42000 {
		t.Errorf("registered app should shadow builtin, got accesses=%d", s.Accesses)
	}
	all := workloads.Names()
	count := 0
	for _, n := range all {
		if n == "delaunay" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("delaunay appears %d times in Names, want 1", count)
	}
}

func TestTraceSourceApp(t *testing.T) {
	f, err := Parse([]byte(`{
		"apps": [{"name": "recorded", "source": "trace", "trace": "recorded.wtrc"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	specs := f.Apps
	if len(specs) != 1 {
		t.Fatalf("specs = %d", len(specs))
	}
	s := specs[0]
	if s.TracePath != "recorded.wtrc" || s.Suite != "trace" || len(s.Structs) != 0 {
		t.Fatalf("trace app spec = %+v", s)
	}
}

func TestTraceSourceValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"missing path", `{"apps":[{"name":"x","source":"trace"}]}`, "trace file path"},
		{"structs forbidden", `{"apps":[{"name":"x","source":"trace","trace":"a.wtrc","structs":[{"name":"s","bytes":64,"pattern":"seq"}]}]}`, "no structs"},
		{"apki forbidden", `{"apps":[{"name":"x","source":"trace","trace":"a.wtrc","apki":30}]}`, "generator parameters"},
		{"bad source", `{"apps":[{"name":"x","source":"magic"}]}`, "unknown source"},
		{"trace without source", `{"apps":[{"name":"x","trace":"a.wtrc","structs":[{"name":"s","bytes":64,"pattern":"seq"}]}]}`, "only valid with source"},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.json)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestTraceSourceRelativePathResolution(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	err := os.WriteFile(path, []byte(`{
		"apps": [
			{"name": "rel", "source": "trace", "trace": "traces/a.wtrc"},
			{"name": "abs", "source": "trace", "trace": "/tmp/b.wtrc"}
		]
	}`), 0o666)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.Apps[0].TracePath, filepath.Join(dir, "traces/a.wtrc"); got != want {
		t.Errorf("relative path = %q, want %q", got, want)
	}
	if got := f.Apps[1].TracePath; got != "/tmp/b.wtrc" {
		t.Errorf("absolute path rewritten to %q", got)
	}
}

func TestTraceSourceRoundTrip(t *testing.T) {
	in := []workloads.AppSpec{{Name: "rec", Source: "trace", Suite: "trace", TracePath: "x.wtrc"}}
	data, err := Encode(&File{Apps: in})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	out := back.Apps
	if len(out) != 1 || !reflect.DeepEqual(out[0], in[0]) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}
