package trace

import (
	"fmt"
	"strconv"
)

// ID is a trace or span identifier. On the JSON wire (the worker span
// forwarding protocol, the journaled runq TraceRef) it renders as the
// 16-hex-digit string the rest of the tracing world uses; in memory
// and in the binary sink it stays a uint64.
type ID uint64

// String renders the ID as 16 lowercase hex digits.
func (id ID) String() string {
	return fmt.Sprintf("%016x", uint64(id))
}

// MarshalJSON renders the ID as a quoted hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the quoted hex string form.
func (id *ID) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: ID must be a quoted hex string, got %s", b)
	}
	v, err := strconv.ParseUint(string(b[1:len(b)-1]), 16, 64)
	if err != nil {
		return fmt.Errorf("trace: bad ID %s: %w", b, err)
	}
	*id = ID(v)
	return nil
}

// ParseID parses the 16-hex-digit string form (as printed by String
// and carried in headers).
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad ID %q: %w", s, err)
	}
	return ID(v), nil
}

// FormatTraceparent renders the W3C-style traceparent header the lease
// protocol carries: version 00, the 128-bit trace-id field holding our
// 64-bit trace ID zero-padded, the parent span ID, and the sampled
// flag always set (a traced run records every span).
func FormatTraceparent(traceID, spanID uint64) string {
	return fmt.Sprintf("00-%032x-%016x-01", traceID, spanID)
}

// SpanData is one completed span — the unit the sinks persist and the
// worker protocol forwards. Durations and timestamps are nanoseconds;
// Stages holds per-frame-stage accumulated latency for a span an
// episode annotated (indexed by the caller's stage constants,
// perception.Stage* for the frame loop).
type SpanData struct {
	TraceID ID     `json:"trace"`
	SpanID  ID     `json:"span"`
	Parent  ID     `json:"parent,omitempty"`
	Name    string `json:"name"`
	Service string `json:"service"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns"`

	// Engine-job fields: the job's seed and, when the job ran an
	// episode, its frames (Episode).
	Seed          int64 `json:"seed,omitempty"`
	Frames        int32 `json:"frames,omitempty"`
	SampledFrames int32 `json:"sampled_frames,omitempty"`

	Stages []int64 `json:"stages,omitempty"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// End is the span's end timestamp in nanoseconds.
func (d *SpanData) End() int64 { return d.Start + d.Dur }

// Episode reports whether an episode annotated the span: a job span
// that ran an episode counts its frames, any other span has none.
func (d *SpanData) Episode() bool { return d.Frames > 0 }

// Attr returns the named attribute's value ("" when absent).
func (d *SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Clone deep-copies the span, detaching Stages and Attrs from any
// pooled backing arrays. Sinks that buffer spans past Emit must clone.
func (d *SpanData) Clone() SpanData {
	out := *d
	if len(d.Stages) > 0 {
		out.Stages = append([]int64(nil), d.Stages...)
	}
	if len(d.Attrs) > 0 {
		out.Attrs = append([]Attr(nil), d.Attrs...)
	}
	return out
}
