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

// bareStore strips MemStore down to the core Store interface plus the
// episode lister, hiding StatsProvider — the GET /stores fallback path.
type bareStore struct{ inner *results.MemStore }

func (b bareStore) Append(ep results.EpisodeRecord) error        { return b.inner.Append(ep) }
func (b bareStore) PutCampaign(c results.CampaignRecord) error   { return b.inner.PutCampaign(c) }
func (b bareStore) Campaigns() ([]results.CampaignRecord, error) { return b.inner.Campaigns() }
func (b bareStore) Episodes(name string) ([]results.EpisodeRecord, error) {
	return b.inner.Episodes(name)
}
func (b bareStore) EpisodeCampaigns() []string { return b.inner.EpisodeCampaigns() }

func TestStoresEndpointFallback(t *testing.T) {
	ts := newTestServer(t, bareStore{inner: seededStore(t)})
	var stats []results.StoreStats
	getJSON(t, ts.URL+"/stores", &stats)
	if len(stats) != 1 {
		t.Fatalf("got %d store entries, want 1", len(stats))
	}
	st := stats[0]
	if st.Format != "unknown" || !st.Estimated {
		t.Errorf("stats = %+v, want unknown format flagged estimated", st)
	}
	if st.Campaigns != 2 || st.Episodes != 3 {
		t.Errorf("stats = %+v, want 2 campaigns / 3 episodes counted through the interface", st)
	}
}
