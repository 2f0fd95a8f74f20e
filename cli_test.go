package whirlpool_test

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIsRejectBadScale builds every CLI that takes -scale and runs it
// with a negative and a NaN scale. Each must exit 1 with the shared
// scale message at once; a scale that slips through asks the workload
// generator for an unbounded run, which the 10 s timeout turns into a
// failure.
func TestCLIsRejectBadScale(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/whirlsweep", "./cmd/whirlsim", "./cmd/whirlbench", "./cmd/whirltool")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmds := map[string][]string{
		"whirlsweep": {"-apps", "delaunay", "-schemes", "snuca-lru", "-q"},
		"whirlsim":   {"-app", "delaunay", "-scheme", "snuca-lru"},
		"whirlbench": {"-fig", "fig16", "-apps", "delaunay"},
		"whirltool":  {"trace", "record", "-app", "delaunay", "-o", filepath.Join(bin, "out.wtrc")},
	}
	for _, name := range []string{"whirlsweep", "whirlsim", "whirlbench", "whirltool"} {
		for _, scale := range []string{"-1", "NaN"} {
			t.Run(name+"/"+scale, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				args := append(append([]string(nil), cmds[name]...), "-scale", scale)
				cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
				var stderr strings.Builder
				cmd.Stderr = &stderr
				err := cmd.Run()
				if ctx.Err() != nil {
					t.Fatalf("%s -scale %s still running after 10 s", name, scale)
				}
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 1 {
					t.Fatalf("%s -scale %s: err = %v, want exit status 1", name, scale, err)
				}
				if !strings.Contains(stderr.String(), "scale must be a finite number >= 0") {
					t.Fatalf("%s -scale %s: stderr %q lacks the scale message", name, scale, stderr.String())
				}
			})
		}
	}
}
