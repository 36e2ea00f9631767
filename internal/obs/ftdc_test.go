package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFTDCRoundTrip: encode a series of snapshots, decode, and get the
// same timestamps and values back exactly.
func TestFTDCRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		ts      int64
		samples []Sample
	}{
		{1000, []Sample{{"a_total", 0}, {"b_gauge", -1.5}}},
		{2000, []Sample{{"a_total", 3}, {"b_gauge", 2.25}}},
		{3500, []Sample{{"a_total", 3}, {"b_gauge", math.Pi}}},
		// Schema change mid-stream: a new series appears.
		{5000, []Sample{{"a_total", 10}, {"b_gauge", 0}, {"c_total", 7}}},
		{6000, []Sample{{"a_total", 11}, {"b_gauge", -0.125}, {"c_total", 9}}},
	}
	for _, s := range steps {
		if err := enc.Encode(s.ts, s.samples); err != nil {
			t.Fatal(err)
		}
	}

	snaps, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(steps) {
		t.Fatalf("decoded %d snapshots, want %d", len(snaps), len(steps))
	}
	for i, s := range steps {
		if snaps[i].TS != s.ts {
			t.Errorf("snapshot %d: ts %d, want %d", i, snaps[i].TS, s.ts)
		}
		if len(snaps[i].Metrics) != len(s.samples) {
			t.Errorf("snapshot %d: %d series, want %d", i, len(snaps[i].Metrics), len(s.samples))
		}
		for _, want := range s.samples {
			if got := snaps[i].Metrics[want.Name]; got != want.Value {
				t.Errorf("snapshot %d: %s = %v, want %v", i, want.Name, got, want.Value)
			}
		}
	}
}

// TestFTDCRejectsGarbage: a file without the magic header, or with a
// schema beyond the decoder's bounds, is refused with an error instead
// of an allocation sized by the file.
func TestFTDCRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"no magic": "not a capture file at all",
		// 21 bytes claiming about 2^41 series: out of memory before
		// the schema count was bounded.
		"schema count": ftdcMagic + "S\xdd\xdd\xdd\xdd\xddD",
		"name length":  ftdcMagic + "S\x01\xff\xff\xff\xff\x0f",
	} {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoding succeeded", name)
		}
	}
}

// TestFTDCTornTail cuts a capture with a mid-capture schema change at
// every offset: a cut inside the magic is refused, and any later cut
// decodes, without error, to exactly the snapshots whose chunks lie
// whole before it, bit for bit.
func TestFTDCTornTail(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // capture length after each snapshot
	for i, samples := range [][]Sample{
		{{"a_total", 0}, {"b_gauge", -1.5}},
		{{"a_total", 300}, {"b_gauge", math.Inf(1)}},
		{{"a_total", 301}, {"b_gauge", 2.25}, {"c_total", 1e300}},
		{{"a_total", 302}, {"b_gauge", -0.125}, {"c_total", 7}},
		{{"a_total", 1 << 40}, {"b_gauge", math.NaN()}, {"c_total", 8}},
	} {
		if err := enc.Encode(int64(1000+1500*i), samples); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	full := buf.Bytes()
	want, err := Decode(bytes.NewReader(full))
	if err != nil || len(want) != len(ends) {
		t.Fatalf("whole capture: %d snapshots (%v), want %d", len(want), err, len(ends))
	}
	for cut := 0; cut <= len(full); cut++ {
		got, err := Decode(bytes.NewReader(full[:cut]))
		if cut < len(ftdcMagic) {
			if err == nil {
				t.Errorf("cut at %d, inside the magic: decoding succeeded", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if len(got) != whole {
			t.Fatalf("cut at %d: %d snapshots, want %d", cut, len(got), whole)
		}
		for i, s := range got {
			if s.TS != want[i].TS || len(s.Metrics) != len(want[i].Metrics) {
				t.Fatalf("cut at %d, snapshot %d: ts %d with %d series, want ts %d with %d", cut, i, s.TS, len(s.Metrics), want[i].TS, len(want[i].Metrics))
			}
			for name, v := range want[i].Metrics {
				if got, ok := s.Metrics[name]; !ok || math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("cut at %d, snapshot %d: %s = %v, want %v", cut, i, name, got, v)
				}
			}
		}
	}
}

// FuzzFTDCDecode: Decode returns an error, never crashes, on any input,
// and whatever it accepts round-trips through the Encoder bit for bit.
// The seed corpus in testdata/fuzz holds a real robotack-campaign
// capture, and the same capture with its last 3 bytes cut off.
func FuzzFTDCDecode(f *testing.F) {
	f.Add([]byte(ftdcMagic + "S\xdd\xdd\xdd\xdd\xddD"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snaps {
			samples := make([]Sample, 0, len(s.Metrics))
			for name, v := range s.Metrics {
				samples = append(samples, Sample{name, v})
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
			if err := enc.Encode(s.TS, samples); err != nil {
				t.Fatal(err)
			}
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded capture: %v", err)
		}
		if len(again) != len(snaps) {
			t.Fatalf("re-encoded capture holds %d snapshots, want %d", len(again), len(snaps))
		}
		for i, s := range snaps {
			if again[i].TS != s.TS || len(again[i].Metrics) != len(s.Metrics) {
				t.Fatalf("snapshot %d: ts %d with %d series, want ts %d with %d", i, again[i].TS, len(again[i].Metrics), s.TS, len(s.Metrics))
			}
			for name, v := range s.Metrics {
				if got, ok := again[i].Metrics[name]; !ok || math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("snapshot %d: %s = %v, want %v", i, name, got, v)
				}
			}
		}
	})
}

// TestCaptureLifecycle: StartCapture writes a decodable file whose
// values track the registry, and Stop takes a final sample.
func TestCaptureLifecycle(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cap_total", "")
	path := filepath.Join(t.TempDir(), "metrics.ftdc")

	cap, err := StartCapture(r, path, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(5)
	time.Sleep(35 * time.Millisecond)
	c.Add(2)
	if err := cap.Stop(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snaps, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("capture produced no snapshots")
	}
	// The final (Stop-time) sample must see the full total.
	last := snaps[len(snaps)-1]
	if got := last.Metrics["cap_total"]; got != 7 {
		t.Errorf("final snapshot cap_total = %v, want 7", got)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].TS < snaps[i-1].TS {
			t.Errorf("snapshot %d: ts went backwards", i)
		}
	}
}
