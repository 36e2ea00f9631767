package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/robotack/robotack/bench/stat"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/segstore"
)

// Span lanes of the traced serve-fleet run in the Chrome trace: clients
// use lanes 1 and 2.
const (
	serverLane = 10
	storeLane  = 11
)

// fleetRoutes are the campaign server routes the traced run times.
var fleetRoutes = []string{"runs_post", "lease", "heartbeat", "episodes_post", "complete", "campaign_summary"}

// fleetObs collects what the traced serve-fleet run's decorators see
// while the recorder is active.
type fleetObs struct {
	rec   *recorder
	timer *oracleTimer
	// runSpans maps a run id to its client's span, so the workers'
	// requests for that run join the run's trace.
	runSpans sync.Map

	mu sync.Mutex
	// ms holds each timed call's milliseconds by span name.
	ms                  map[string][]float64
	leases, emptyLeases int
}

// reset forgets what the set-ups' warm-up runs recorded.
func (o *fleetObs) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	clear(o.ms)
	o.leases, o.emptyLeases = 0, 0
	o.timer.reset()
}

// report sets the route, store and lease metrics per run recorded.
func (o *fleetObs) report(b *benchRun, runs int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := float64(runs)
	for _, r := range fleetRoutes {
		ms := o.ms["campaignd."+r]
		b.set("campaignd."+r+".ms_p50", stat.Median(ms))
		b.set("campaignd."+r+".per_run", ratio(float64(len(ms)), n))
	}
	b.set("segstore.appends_per_run", ratio(float64(len(o.ms["segstore.append"])), n))
	b.set("segstore.append_ms_p50", stat.Median(o.ms["segstore.append"]))
	b.set("segstore.put_campaign_ms_p50", stat.Median(o.ms["segstore.put_campaign"]))
	b.set("segstore.aggregate_ms_p50", stat.Median(o.ms["segstore.aggregate"]))
	b.set("runq.lease_empty_ratio", ratio(float64(o.emptyLeases), float64(o.leases)))
	b.set("runq.post_batches_per_run", ratio(float64(len(o.ms["campaignd.episodes_post"])), n))
}

// observe records one call that started at start: its span, under
// parent when the call belongs to a run, and its milliseconds.
func (o *fleetObs) observe(name string, lane int, parent span, start time.Time) {
	end := time.Now()
	if parent.r != nil {
		parent.childAt(name, lane, start, end)
	} else {
		o.rec.rootAt(name, lane, start, end)
	}
	o.mu.Lock()
	o.ms[name] = append(o.ms[name], float64(end.Sub(start))/1e6)
	o.mu.Unlock()
}

// routeTimer wraps the campaign server and times the routes in
// fleetRoutes. Each request's span joins the trace of the run it serves:
// the client names its span in the X-Bench-Parent header, and a
// worker's request for run {id} joins the span that POSTed the run.
type routeTimer struct {
	next http.Handler
	obs  *fleetObs
}

func (h *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, runID := routeOf(r)
	if route == "" || !h.obs.rec.active() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.obs.observe("campaignd."+route, serverLane, h.obs.parentOf(r, runID), start)
}

// parentOf finds the span a request belongs to.
func (o *fleetObs) parentOf(r *http.Request, runID int) span {
	if v := r.Header.Get(benchParent); v != "" {
		t, id, ok := strings.Cut(v, "/")
		if ok {
			trace, err1 := strconv.ParseUint(t, 10, 64)
			sid, err2 := strconv.ParseUint(id, 10, 64)
			if err1 == nil && err2 == nil {
				return span{r: o.rec, trace: trace, id: sid}
			}
		}
	}
	if runID > 0 {
		if sp, ok := o.runSpans.Load(runID); ok {
			return sp.(span)
		}
	}
	return span{}
}

// routeOf names the timed route a request hits, with its run id when
// the path carries one.
func routeOf(r *http.Request) (route string, runID int) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/runs":
		return "runs_post", 0
	case r.Method == http.MethodPost && p == "/lease":
		return "lease", 0
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/campaigns/") && strings.HasSuffix(p, "/summary"):
		return "campaign_summary", 0
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/runs/"):
		parts := strings.Split(p, "/") // "", "runs", id, verb
		if len(parts) != 4 {
			return "", 0
		}
		id, err := strconv.Atoi(parts[2])
		if err != nil {
			return "", 0
		}
		switch parts[3] {
		case "heartbeat", "complete":
			return parts[3], id
		case "episodes":
			return "episodes_post", id
		}
	}
	return "", 0
}

// leaseCounter counts the workers' lease calls and the empty (204)
// ones.
type leaseCounter struct {
	next http.RoundTripper
	obs  *fleetObs
}

func (l *leaseCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.next.RoundTrip(req)
	if err == nil && req.URL.Path == "/lease" && l.obs.rec.active() {
		l.obs.mu.Lock()
		l.obs.leases++
		if resp.StatusCode == http.StatusNoContent {
			l.obs.emptyLeases++
		}
		l.obs.mu.Unlock()
	}
	return resp, err
}

// timedStore times the served store's appends, aggregate upserts and
// aggregate reads. It forwards every optional interface the segstore
// implements — results.Aggregator, results.StatsProvider,
// results.DurableStore and EpisodeCampaigns — so the server takes the
// same fast paths it takes on the bare store.
type timedStore struct {
	inner *segstore.Store
	obs   *fleetObs
}

var (
	_ results.DurableStore  = (*timedStore)(nil)
	_ results.Aggregator    = (*timedStore)(nil)
	_ results.StatsProvider = (*timedStore)(nil)
)

// timed runs fn, recording it as span name while the recorder is
// active.
func (s *timedStore) timed(name string, fn func() error) error {
	if !s.obs.rec.active() {
		return fn()
	}
	start := time.Now()
	err := fn()
	s.obs.observe(name, storeLane, span{}, start)
	return err
}

func (s *timedStore) Append(ep results.EpisodeRecord) error {
	return s.timed("segstore.append", func() error { return s.inner.Append(ep) })
}

func (s *timedStore) PutCampaign(c results.CampaignRecord) error {
	return s.timed("segstore.put_campaign", func() error { return s.inner.PutCampaign(c) })
}

func (s *timedStore) Campaigns() (recs []results.CampaignRecord, err error) {
	err = s.timed("segstore.aggregate", func() error {
		recs, err = s.inner.Campaigns()
		return err
	})
	return recs, err
}

func (s *timedStore) AggregateEpisodes(name string) (rec *results.CampaignRecord, err error) {
	err = s.timed("segstore.aggregate", func() error {
		rec, err = s.inner.AggregateEpisodes(name)
		return err
	})
	return rec, err
}

func (s *timedStore) Episodes(campaign string) ([]results.EpisodeRecord, error) {
	return s.inner.Episodes(campaign)
}

func (s *timedStore) EpisodeCampaigns() []string { return s.inner.EpisodeCampaigns() }

func (s *timedStore) Stats() (results.StoreStats, error) { return s.inner.Stats() }

func (s *timedStore) Sync() error { return s.inner.Sync() }

func (s *timedStore) Close() error { return s.inner.Close() }
