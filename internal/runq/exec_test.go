package runq_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
	"github.com/robotack/robotack/internal/scenegen"
)

// TestJobFoldMatchesExecuteRequest: the record the server folds from a
// job's stored episodes (Job.Fold) is byte for byte the one
// ExecuteRequest computes while it stores them, for every mode on a
// named scenario, an inline spec and a generator.
func TestJobFoldMatchesExecuteRequest(t *testing.T) {
	ds1, ok := scenegen.Lookup("DS-1")
	if !ok {
		t.Fatal("DS-1 not registered")
	}
	spec := *ds1
	spec.Name = "inline-ds1"
	sources := []struct {
		name string
		req  runq.Request
	}{
		{"named", runq.Request{Scenario: "DS-2"}},
		{"spec", runq.Request{Spec: &spec}},
		{"generator", runq.Request{Generate: &scenegen.Space{MaxExtras: 2}}},
	}
	for _, mode := range []string{"golden", "smart", "nosh", "random"} {
		for _, src := range sources {
			t.Run(mode+"/"+src.name, func(t *testing.T) {
				req := src.req
				req.Mode, req.Runs, req.Seed = mode, 3, 40
				store := results.NewMemStore()
				want, err := runq.ExecuteRequest(engine.New(engine.WithWorkers(2)), req, nil, experiment.WithSink(store))
				if err != nil {
					t.Fatal(err)
				}
				eps, err := store.Episodes(req.RecordName())
				if err != nil {
					t.Fatal(err)
				}
				job := runq.Job{ID: 1, Request: req}
				got, err := job.Fold(eps)
				if err != nil {
					t.Fatal(err)
				}
				rawWant, _ := json.Marshal(want)
				rawGot, _ := json.Marshal(got)
				if !bytes.Equal(rawWant, rawGot) {
					t.Errorf("fold differs from ExecuteRequest:\nwant %s\ngot  %s", rawWant, rawGot)
				}
				if _, err := job.Fold(eps[:2]); err == nil {
					t.Error("fold with episode 2 missing succeeded")
				}
				eps[1].Seed++
				if _, err := job.Fold(eps); err == nil {
					t.Error("fold with a foreign seed at episode 1 succeeded")
				}
			})
		}
	}
}
