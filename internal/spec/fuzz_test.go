package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whirlpool/internal/workloads"
)

// FuzzParseSpec feeds arbitrary bytes to Parse. Parse must never panic;
// an accepted file must encode and re-parse to an equal value; and every
// synthetic app in it must build and stream.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../specs/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed spec files: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range invalidSpecs {
		f.Add([]byte(c.in))
	}
	f.Add([]byte(`{"apps":[{"name":"x","structs":[{"name":"x","bytes":192,"pattern":"rand"}]}]}`))
	// Empty lists, which validation must drop for the round trip to hold.
	f.Add([]byte(`{"apps":[{"name":"a","manual_pools":[],"structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]},` +
		`{"name":"t","source":"trace","trace":"t.wtrc","structs":[],"phases":[],"manual_pools":[]}],` +
		`"mixes":[{"name":"m","apps":["a"],"chip":{"preset":"4core","mesh":[]}}]}`))
	f.Add([]byte(`{"apps":[{"name":"a","structs":[{"name":"x","bytes":"1MB","pattern":"rand"}]}],"mixes":[]}`))
	f.Add([]byte(validSpec))

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := Encode(file)
		if err != nil {
			t.Fatalf("Encode of an accepted file: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("Parse(Encode(f)): %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, file) {
			t.Fatalf("Parse(Encode(f)) != f (a nil/empty list or a default differs)\n got: %#v\nwant: %#v", back, file)
		}
		for _, a := range file.Apps {
			if a.TracePath != "" {
				continue
			}
			st := workloads.Build(a, 1).Stream(1)
			for i := 0; i < 1000; i++ {
				if _, ok := st.Next(); !ok {
					break
				}
			}
		}
	})
}
