package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/results"
)

// seededStore builds a store with two finished campaigns and one
// interrupted campaign (episodes only).
func seededStore(t *testing.T) *results.MemStore {
	t.Helper()
	store := results.NewMemStore()
	a := results.NewCampaign("alpha", "DS-1", core.ModeSmart, true, 10)
	a.Runs, a.EBs, a.Crashes = 10, 8, 4
	b := results.NewCampaign("beta", "DS-2", core.ModeRandom, true, 10)
	b.Runs, b.EBs, b.Crashes = 10, 2, 1
	for _, rec := range []results.CampaignRecord{a, b} {
		if err := store.PutCampaign(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		ep := results.EpisodeRecord{
			V: results.Version, Campaign: "interrupted", Index: i, Seed: int64(100 + i),
			Scenario: "DS-2", Mode: core.ModeSmart, Launched: true, EB: i%2 == 0,
			MinDelta: 5.5, Frames: 100,
		}
		if err := store.Append(ep); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// newTestServer builds a campaignd server over store and tears its
// queue down with the test.
func newTestServer(t *testing.T, store results.Store, opts ...Option) *httptest.Server {
	t.Helper()
	srv := New(store, opts...)
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// waitRun polls a run's status until it leaves the live states,
// returning the terminal status.
func waitRun(t *testing.T, base string, id int, timeout time.Duration) RunStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st RunStatus
	for {
		getJSON(t, fmt.Sprintf("%s/runs/%d", base, id), &st)
		if st.State != "queued" && st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d still in state %q after %v (%d/%d)", id, st.State, timeout, st.Done, st.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestServeCampaignQueries(t *testing.T) {
	ts := newTestServer(t, seededStore(t))

	var recs []results.CampaignRecord
	getJSON(t, ts.URL+"/campaigns", &recs)
	if len(recs) != 2 || recs[0].Name != "alpha" || recs[1].Name != "beta" {
		t.Fatalf("campaigns = %+v", recs)
	}

	var one results.CampaignRecord
	if resp := getJSON(t, ts.URL+"/campaigns/alpha", &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("get alpha: status %d", resp.StatusCode)
	}
	if one.EBs != 8 {
		t.Errorf("alpha EBs = %d, want 8", one.EBs)
	}

	// The interrupted campaign has no stored aggregate: /campaigns/{name}
	// recomputes it from episode records.
	var interrupted results.CampaignRecord
	getJSON(t, ts.URL+"/campaigns/interrupted", &interrupted)
	if interrupted.Runs != 3 || interrupted.EBs != 2 {
		t.Errorf("interrupted aggregate = %+v, want 3 runs / 2 EBs", interrupted)
	}

	var eps []results.EpisodeRecord
	getJSON(t, ts.URL+"/campaigns/interrupted/episodes", &eps)
	if len(eps) != 3 || eps[0].Index != 0 {
		t.Errorf("episodes = %+v", eps)
	}

	if resp := getJSON(t, ts.URL+"/campaigns/nonesuch", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing campaign: status %d, want 404", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "alpha") || !strings.Contains(string(body), "RoboTack") {
		t.Errorf("summary output malformed:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/campaigns/alpha/summary")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "alpha") {
		t.Errorf("campaign summary malformed:\n%s", body)
	}
}

func TestServeDiff(t *testing.T) {
	ts := newTestServer(t, seededStore(t))

	// Campaign-vs-campaign within the store.
	var d results.CampaignDiff
	if resp := getJSON(t, ts.URL+"/diff?a=alpha&b=beta", &d); resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status %d", resp.StatusCode)
	}
	if !approx(d.EBRateDelta, -0.6) {
		t.Errorf("EB delta = %v, want -0.6", d.EBRateDelta)
	}

	if resp := getJSON(t, ts.URL+"/diff", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bare diff: status %d, want 400", resp.StatusCode)
	}
	// The service never opens a path a client names: store-vs-store
	// diffs are robotack-store diff's job.
	if resp := getJSON(t, ts.URL+"/diff?other=/dev/zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("diff?other: status %d, want 400", resp.StatusCode)
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestServeLaunchValidation(t *testing.T) {
	ts := newTestServer(t, results.NewMemStore())

	for _, body := range []string{
		`{"scenario":"DS-2","mode":"warp","runs":2,"seed":1}`,                            // bad mode
		`{"scenario":"DS-99","mode":"smart","runs":2,"seed":1}`,                          // unknown scenario
		`{"scenario":"ds-2","mode":"smart","runs":2,"seed":1}`,                           // catalog names are case-sensitive
		`{"scenario":"DS-2","mode":"smart","runs":0,"seed":1}`,                           // no runs
		`{"mode":"smart","runs":2,"seed":1}`,                                             // no scenario source
		`{"scenario":"DS-2","generate":{},"mode":"smart","runs":2,"seed":1}`,             // two sources
		`{"generate":{"target_kinds":["warp-gate"]},"mode":"smart","runs":2,"seed":1}`,   // unknown target kind
		`{"generate":{"ev_speed":{"min":-5,"max":-1}},"mode":"smart","runs":2,"seed":1}`, // degenerate space
		`not json`,
		`{"scenario":"DS-2","mode":"smart","runs":2,"seed":1} {"runs":3}`, // a second value
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	if resp := getJSON(t, ts.URL+"/runs/7", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing run: status %d, want 404", resp.StatusCode)
	}
}

func TestServeLaunchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	store := results.NewMemStore()
	ts := newTestServer(t, store, WithWorkers(4))

	req := `{"scenario":"DS-2","mode":"smart","name":"api-ds2","runs":3,"seed":300}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewBufferString(req))
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == 0 {
		t.Fatalf("launch: status %d, %+v", resp.StatusCode, st)
	}
	if st.State != "queued" {
		t.Fatalf("accepted run starts %q, want queued", st.State)
	}

	st = waitRun(t, ts.URL, st.ID, 3*time.Minute)
	if st.State != "done" {
		t.Fatalf("run finished in state %q: %s", st.State, st.Error)
	}
	if st.Done != 3 {
		t.Errorf("progress = %d/%d, want 3/3", st.Done, st.Total)
	}

	// The launched campaign's records landed in the served store.
	var eps []results.EpisodeRecord
	getJSON(t, ts.URL+"/campaigns/api-ds2/episodes", &eps)
	if len(eps) != 3 {
		t.Fatalf("stored %d episodes, want 3", len(eps))
	}
	var rec results.CampaignRecord
	getJSON(t, ts.URL+"/campaigns/api-ds2", &rec)
	if rec.Runs != 3 || rec.BaseSeed != 300 {
		t.Errorf("aggregate = %+v", rec)
	}

	// Launching the same name again with resume=true folds the stored
	// episodes instead of re-running them, and completes fast.
	req2 := `{"scenario":"DS-2","mode":"smart","name":"api-ds2","runs":3,"seed":300,"resume":true}`
	resp2, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewBufferString(req2))
	if err != nil {
		t.Fatal(err)
	}
	var st2 RunStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	st2 = waitRun(t, ts.URL, st2.ID, 3*time.Minute)
	if st2.State != "done" {
		t.Fatalf("resumed run finished in state %q: %s", st2.State, st2.Error)
	}
	var rec2 results.CampaignRecord
	getJSON(t, ts.URL+"/campaigns/api-ds2", &rec2)
	if rec2.Runs != rec.Runs || rec2.EBs != rec.EBs {
		t.Errorf("resumed aggregate diverged: %+v vs %+v", rec2, rec)
	}

	var all []RunStatus
	getJSON(t, ts.URL+"/runs", &all)
	if len(all) != 2 || all[0].ID >= all[1].ID {
		t.Errorf("runs listing = %+v", all)
	}
}
