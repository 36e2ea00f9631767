package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/results"
)

// Version is the artifact schema version. Readers reject artifacts
// from a newer schema instead of misinterpreting them, mirroring
// internal/results.
const Version = 1

// Artifact kinds.
const (
	// KindPaper names the paper's safety-hijacking trigger,
	// core.DefaultSafetyHijackerConfig.
	KindPaper = "paper"
	// KindParam names a trigger given by its params (typically
	// trained).
	KindParam = "param"
)

// Kinds lists the known policy kinds in listing order, with one-line
// descriptions (robotack-campaign -list-policies).
func Kinds() []struct{ Kind, Desc string } {
	return []struct{ Kind, Desc string }{
		{KindPaper, "the paper's safety-hijacking trigger (§IV-B), smart mode's default"},
		{KindParam, "parameterized trigger thresholds + injection geometry (train with robotack-search)"},
	}
}

func kindNames() []string {
	ks := Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Kind
	}
	return out
}

// Artifact is the persistent, versioned form of an attack policy: what
// robotack-search writes, robotack-campaign -policy evaluates, and
// campaignd's POST /runs accepts inline. The JSON round-trips exactly
// (strict parse, stable field order), like the records of
// internal/results.
type Artifact struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// Name labels the policy in reports (default: the kind).
	Name string `json:"name,omitempty"`
	// Params is required for kind "param" and forbidden otherwise.
	Params *core.SafetyHijackerConfig `json:"params,omitempty"`

	// Search provenance, stamped by the trainer (zero for artifacts
	// written by hand).
	Seed        int64    `json:"seed,omitempty"`
	Generations int      `json:"generations,omitempty"`
	Fitness     float64  `json:"fitness,omitempty"`
	TrainedOn   []string `json:"trained_on,omitempty"`
}

// Label names the policy in campaign names and reports.
func (a *Artifact) Label() string {
	if a.Name != "" {
		return a.Name
	}
	return a.Kind
}

// Validate checks the artifact without building it: schema version,
// known kind, and well-formed params. The error text is the single
// source of truth clients see for a bad artifact, so it names what was
// given and what exists (matching the unknown-scenario style).
func (a *Artifact) Validate() error {
	if a.V > Version {
		return fmt.Errorf("policy: artifact version %d is newer than this build supports (%d); rebuild or use a matching artifact", a.V, Version)
	}
	if a.V < 1 {
		return fmt.Errorf("policy: artifact has no schema version (want \"v\": %d)", Version)
	}
	switch a.Kind {
	case KindPaper:
		if a.Params != nil {
			return fmt.Errorf("policy: kind %q takes no params", KindPaper)
		}
		return nil
	case KindParam:
		if a.Params == nil {
			return fmt.Errorf("policy: kind %q requires params", KindParam)
		}
		return validate(*a.Params)
	default:
		return fmt.Errorf("policy: unknown policy kind %q (have %v)", a.Kind, kindNames())
	}
}

// Build validates the artifact and constructs the runnable policy.
func (a *Artifact) Build() (core.TriggerPolicy, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	switch a.Kind {
	case KindPaper:
		return core.DefaultSafetyHijackerConfig(), nil
	default:
		return *a.Params, nil
	}
}

// Marshal renders the artifact in its canonical on-disk form: indented
// JSON with a trailing newline. Byte-identical for identical artifacts
// (the byte-reproducibility contract of robotack-search).
func (a *Artifact) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Save replaces the artifact at path in canonical form, atomically
// (results.WriteFileAtomic): a failed write leaves the previous file.
func (a *Artifact) Save(path string) error {
	raw, err := a.Marshal()
	if err != nil {
		return err
	}
	return results.WriteFileAtomic(path, raw)
}

// Parse decodes an artifact strictly — unknown fields are schema
// drift, not noise, and anything but whitespace after the one JSON
// value is an error — and validates it.
func Parse(raw []byte) (*Artifact, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var a Artifact
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("policy: parse artifact: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("policy: parse artifact: trailing data after the JSON value")
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// Load reads and parses an artifact file.
func Load(path string) (*Artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	a, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (artifact %s)", err, path)
	}
	return a, nil
}
