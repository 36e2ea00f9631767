package robotack_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestStoreCloseErrorsReported: a segstore's Close syncs each active
// segment and writes its .idx, so a program that drops that error
// reports success for a store it did not finish. Each binary writes a
// store once; then every shard's .idx stage (000000.idx.tmp) is made a
// directory, and the same run again (the campaign with -resume) must
// exit non-zero with stderr naming 000000.idx.
func TestStoreCloseErrorsReported(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/robotack-campaign", "./cmd/robotack-sim", "./examples/scenario_sweep")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		bin   string
		args  []string
		again []string
	}{
		{"robotack-sim", []string{"-scenario", "1", "-mode", "smart", "-seed", "1"}, nil},
		{"robotack-campaign", []string{"-generate", "-train=false", "-runs", "1", "-seed", "1"}, []string{"-resume"}},
		{"scenario_sweep", nil, nil},
	}
	for _, c := range cases {
		t.Run(c.bin, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "s.seg")
			args := append(slices.Clone(c.args), "-out", store)
			if out, err := exec.Command(filepath.Join(bin, c.bin), args...).CombinedOutput(); err != nil {
				t.Fatalf("first run: %v\n%s", err, out)
			}
			idx, err := filepath.Glob(filepath.Join(store, "c", "*", "g000000", "000000.idx"))
			if err != nil || len(idx) == 0 {
				t.Fatalf("no 000000.idx in %s (%v)", store, err)
			}
			for _, p := range idx {
				if err := os.Mkdir(p+".tmp", 0o755); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command(filepath.Join(bin, c.bin), append(args, c.again...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err == nil {
				t.Fatalf("exit 0 although the store's Close failed; stderr:\n%s", &stderr)
			}
			if !strings.Contains(stderr.String(), "000000.idx") {
				t.Fatalf("stderr does not name 000000.idx:\n%s", &stderr)
			}
		})
	}
}
