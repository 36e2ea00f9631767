package campaignd

import (
	"net/http"
	"testing"

	"github.com/robotack/robotack/internal/results"
)

func TestStoresEndpoint(t *testing.T) {
	ts := newTestServer(t, seededStore(t))
	var stats []results.StoreStats
	resp := getJSON(t, ts.URL+"/stores", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stores = %d", resp.StatusCode)
	}
	if len(stats) != 1 {
		t.Fatalf("got %d store entries, want 1", len(stats))
	}
	st := stats[0]
	if st.Format != results.FormatMem || st.Campaigns != 2 || st.Episodes != 3 {
		t.Errorf("stats = %+v, want mem format, 2 campaigns, 3 episodes", st)
	}
	if st.BytesEstimate <= 0 {
		t.Errorf("stats = %+v, want positive bytes estimate", st)
	}
}
