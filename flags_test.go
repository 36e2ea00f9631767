package robotack_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface builds the seven binaries that take telemetry flags
// and pins every flag their -h lists, by name and type. The telemetry
// column is what obs.Flags registers (log is -log-level and -log-json),
// plus the worker's -metrics listen address and the -pprof mounts,
// which stay in their mains; a flag that is added, dropped or retyped
// anywhere fails here.
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven binaries")
	}
	log := []string{"-log-level string", "-log-json"}
	cases := []struct {
		bin       string
		telemetry []string
		other     []string
	}{
		{"robotack-campaign",
			append([]string{"-ftdc string", "-trace string", "-cpuprofile string", "-memprofile string"}, log...),
			[]string{"-generate", "-list-policies", "-list-scenarios", "-out string", "-policy string", "-resume", "-runs int", "-scenario-file string", "-seed int", "-train", "-workers int"}},
		{"robotack-search",
			append([]string{"-ftdc string"}, log...),
			[]string{"-generations int", "-log string", "-out string", "-pop int", "-runs int", "-scenarios string", "-seed int", "-sigma float", "-store string", "-train", "-workers int"}},
		{"robotack-serve",
			append([]string{"-ftdc string", "-trace string", "-pprof"}, log...),
			[]string{"-addr string", "-lease-ttl duration", "-max-concurrent int", "-queue-dir string", "-store string", "-workers int"}},
		{"robotack-worker",
			append([]string{"-ftdc string", "-metrics string", "-pprof"}, log...),
			[]string{"-name string", "-poll duration", "-server string", "-workers int"}},
		{"robotack-sim", log,
			[]string{"-generate", "-list-scenarios", "-mode string", "-out string", "-scenario int", "-scenario-file string", "-seed int", "-vector string"}},
		{"robotack-train", log,
			[]string{"-epochs int", "-report string", "-seed int", "-workers int"}},
		{"robotack-characterize", log,
			[]string{"-frames int", "-out string", "-seed int", "-workers int"}},
	}

	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, c := range cases {
		args = append(args, "./cmd/"+c.bin)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range cases {
		out, err := exec.Command(filepath.Join(dir, c.bin), "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v\n%s", c.bin, err, out)
			continue
		}
		// flag.PrintDefaults starts each flag's line with "  -name"
		// and its type, if any; the usage text follows on the next line.
		var got []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "  -") {
				got = append(got, strings.TrimSpace(line))
			}
		}
		want := append(slices.Clone(c.telemetry), c.other...)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s flags:\n got  %q\n want %q", c.bin, got, want)
		}
	}
}
