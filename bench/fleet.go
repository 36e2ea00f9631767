package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/robotack/robotack/bench/stat"
	"github.com/robotack/robotack/internal/campaignd"
	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/segstore"
)

// fleetClients is the closed loop's client count; each client holds at
// most one connection at a time.
const fleetClients = 2

// fleetWindow is how long a traced serve-fleet run records before it
// measures the same length untraced, alternately.
const fleetWindow = 500 * time.Millisecond

// fleet is one set-up of serve-fleet: the campaign server over a
// segstore and a journaled run queue that executes nothing itself,
// served on a loopback listener, with two remote workers (one engine
// worker each) leasing its runs over HTTP.
type fleet struct {
	dir     string
	store   *segstore.Store
	queue   *runq.Queue
	srv     *http.Server
	url     string
	client  *http.Client
	workerT *http.Transport
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	obs     *fleetObs // nil in untraced runs
	once    sync.Once
}

// startFleet sets up a fleet in a fresh temporary directory.
func startFleet(b *benchRun, fo *fleetObs) (*fleet, error) {
	dir, err := os.MkdirTemp("", "robotack-bench-fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, obs: fo}
	if f.store, err = segstore.Open(filepath.Join(dir, "store")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if f.queue, err = runq.Open(filepath.Join(dir, "queue"), runq.WithMaxConcurrent(0)); err != nil {
		f.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var store results.Store = f.store
	if fo != nil {
		store = &timedStore{inner: f.store, obs: fo}
	}
	var handler http.Handler = campaignd.New(store, campaignd.WithQueue(f.queue))
	if fo != nil {
		handler = &routeTimer{next: handler, obs: fo}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := f.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bench: serve-fleet: %v\n", err)
		}
	}()
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: fleetClients, MaxIdleConnsPerHost: fleetClients}}

	f.workerT = &http.Transport{MaxIdleConnsPerHost: 4}
	var rt http.RoundTripper = f.workerT
	var oracles map[core.Vector]core.Oracle
	if fo != nil {
		rt = &leaseCounter{next: f.workerT, obs: fo}
		oracles = fo.timer.wrap(analyticOracles())
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < engineWorkers; i++ {
		w := &runq.Worker{Server: f.url, Name: fmt.Sprintf("w%d", i), Workers: 1,
			Poll: 2 * time.Millisecond, Client: &http.Client{Transport: rt}, Oracles: oracles}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx) // returns nil once ctx is cancelled
		}()
	}
	// Warm-up: a few closed-loop runs on seeds the measured phase never
	// uses.
	var warm sync.WaitGroup
	errs := make([]error, fleetClients)
	for c := 0; c < fleetClients; c++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			for i := 0; i < b.sizes.fleetWarmRuns/fleetClients; i++ {
				if out := f.do(b, fmt.Sprintf("warm-%d-%d", c, i), engine.SplitMixSeeds(b.seed, -1-(c*1000+i)), span{}); out.err != nil {
					errs[c] = out.err
					return
				}
			}
		}()
	}
	warm.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

// close stops the workers, the listener, the queue and the store, waits
// for every goroutine the fleet started, and removes its directory. Only
// the first call does anything.
func (f *fleet) close() { f.once.Do(f.shutdown) }

func (f *fleet) shutdown() {
	if f.cancel != nil {
		f.cancel()
	}
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = f.srv.Shutdown(ctx)
		cancel()
	}
	f.wg.Wait()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.workerT != nil {
		f.workerT.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = f.queue.Shutdown(ctx)
	cancel()
	_ = f.store.Close()
	os.RemoveAll(f.dir)
}

// fleetRun is one served run as its client saw it.
type fleetRun struct {
	req     runq.Request
	index   int // the run's position in its client's sequence
	traced  bool
	err     error
	latency time.Duration // POST /runs to the terminal event
	// wait runs from the accepted POST to the first "running" event,
	// exec from there to the terminal event; both zero when the event
	// stream never showed the run running.
	wait, exec time.Duration
}

// request is the run a client sends: a fresh procedural scenario per
// episode, the smart attack, a fixed episode count.
func (b *benchRun) fleetRequest(name string, seed int64) runq.Request {
	return runq.Request{Generate: &scenegen.Space{}, Mode: "smart", Runs: b.sizes.fleetRunEpisodes, Seed: seed, Name: name}
}

// do sends one run, follows its event stream to the terminal event and
// reads the campaign's summary, as a client of the service does.
func (f *fleet) do(b *benchRun, name string, seed int64, root span) fleetRun {
	out := fleetRun{req: b.fleetRequest(name, seed), traced: root.r != nil}
	body, _ := json.Marshal(out.req)
	start := time.Now()
	post := root.child("client.post", 0)
	var status campaignd.RunStatus
	code, err := f.call(http.MethodPost, "/runs", body, post, &status)
	post.end()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /runs: status %d", code)
	}
	if err != nil {
		out.err = err
		return out
	}
	accepted := time.Now()
	if f.obs != nil {
		f.obs.runSpans.Store(status.ID, root)
	}
	events := root.child("client.events", 0)
	state, running, err := f.follow(status.ID, events)
	events.end()
	done := time.Now()
	out.latency = done.Sub(start)
	if !running.IsZero() {
		out.wait, out.exec = running.Sub(accepted), done.Sub(running)
	}
	if err == nil && state != runq.StateDone {
		err = fmt.Errorf("run %d ended %s", status.ID, state)
	}
	if err != nil {
		out.err = err
		return out
	}
	summary := root.child("client.summary", 0)
	code, err = f.call(http.MethodGet, "/campaigns/"+name+"/summary", nil, summary, nil)
	summary.end()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET summary: status %d", code)
	}
	out.err = err
	return out
}

// benchParent carries a client span's identity to the server-side route
// spans, so a run's requests share its trace.
const benchParent = "X-Bench-Parent"

// call makes one request and decodes a JSON reply into out (when
// non-nil), draining the body so the connection is reused.
func (f *fleet) call(method, path string, body []byte, sp span, out any) (int, error) {
	req, err := http.NewRequest(method, f.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if sp.r != nil {
		req.Header.Set(benchParent, fmt.Sprintf("%d/%d", sp.trace, sp.id))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// follow reads GET /runs/{id}/events until the terminal event and
// returns the terminal state and when the run was first seen running.
func (f *fleet) follow(id int, sp span) (runq.State, time.Time, error) {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/runs/%d/events", f.url, id), nil)
	if err != nil {
		return "", time.Time{}, err
	}
	if sp.r != nil {
		req.Header.Set(benchParent, fmt.Sprintf("%d/%d", sp.trace, sp.id))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	var running time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev runq.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", running, fmt.Errorf("event: %w", err)
		}
		if ev.State == runq.StateRunning && running.IsZero() {
			running = time.Now()
		}
		if ev.State.Terminal() {
			_, err := io.Copy(io.Discard, resp.Body)
			return ev.State, running, err
		}
	}
	if err := sc.Err(); err != nil {
		return "", running, err
	}
	return "", running, errors.New("event stream ended before a terminal event")
}

// runFleet drives the served fleet with two closed-loop clients until
// the measured time is up: each sends POST /runs, waits for the run's
// terminal event, then reads GET /campaigns/{name}/summary. Afterwards
// every sizes.recomputeEvery-th run is recomputed in-process with
// runq.ExecuteRequest and must equal the served GET /campaigns/{name}.
// A traced run records in alternating windows of fleetWindow, so the
// untraced windows give trace.overhead_frac under the same load.
func runFleet(b *benchRun) error {
	root := b.rec.root(b.workload, 0)
	defer root.end()
	var fo *fleetObs
	if b.traced() {
		fo = &fleetObs{rec: b.rec, timer: &oracleTimer{rec: b.rec}, ms: make(map[string][]float64)}
	}
	f, teardown, err := setupRepeated(b, func() (*fleet, func(), error) {
		f, err := startFleet(b, fo)
		if err != nil {
			return nil, nil, err
		}
		return f, f.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	if fo != nil {
		fo.reset()
	}

	var (
		mu   sync.Mutex
		runs []fleetRun
		wg   sync.WaitGroup
		mem  memDelta
	)
	start := time.Now()
	m0 := readMem()
	stop, toggled := make(chan struct{}), make(chan struct{})
	if b.traced() {
		// Alternate recorded and unrecorded windows; the process counters
		// cover the unrecorded ones.
		go func() {
			defer close(toggled)
			t := time.NewTicker(fleetWindow)
			defer t.Stop()
			for {
				select {
				case <-stop:
					if b.rec.off.Load() {
						mem.add(m0, readMem())
					}
					b.rec.off.Store(false)
					return
				case <-t.C:
					m1 := readMem()
					if b.rec.off.Load() {
						mem.add(m0, m1)
					}
					m0 = m1
					b.rec.off.Store(!b.rec.off.Load())
				}
			}
		}()
	}
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
				sp := b.rec.root("fleet.run", c+1)
				out := f.do(b, fmt.Sprintf("fleet-%d-%d", c, i), engine.SplitMixSeeds(b.seed, c*1_000_000+i), sp)
				sp.end()
				out.index = i
				mu.Lock()
				runs = append(runs, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if b.traced() {
		close(stop)
		<-toggled
	} else {
		mem.add(m0, readMem())
	}

	var opMS, tracedMS, plainMS, waitMS, execMS []float64
	for _, r := range runs {
		b.op()
		if r.err != nil {
			b.fail(r.req.Name, "%v", r.err)
			continue
		}
		ms := float64(r.latency) / 1e6
		opMS = append(opMS, ms)
		if !r.traced {
			plainMS = append(plainMS, ms)
			continue
		}
		tracedMS = append(tracedMS, ms)
		if r.exec > 0 {
			waitMS = append(waitMS, float64(r.wait)/1e6)
			execMS = append(execMS, float64(r.exec)/1e6)
		}
	}
	b.setOps(start, opMS, len(opMS)*b.sizes.fleetRunEpisodes)
	b.note("runs_per_s", ratio(float64(len(opMS)), wall.Seconds()), "runs/s")
	b.setProc(mem, len(plainMS)*b.sizes.fleetRunEpisodes)

	verify := root.child("verify", 0)
	f.recompute(b, runs)
	verify.end()
	if fo == nil {
		return nil
	}
	b.set("trace.overhead_frac", ratio(stat.Median(tracedMS), stat.Median(plainMS))-1)
	b.set("runq.queue_wait_ms_p50", stat.Median(waitMS))
	b.set("runq.queue_wait_ms_p90", stat.Percentile(waitMS, 90))
	b.set("runq.exec_ms_p50", stat.Median(execMS))
	fo.report(b, len(tracedMS))

	// Episodes: every sizes.replayEvery-th episode of every measured run,
	// read back from the store, is timed on the reference path and
	// replayed.
	var samples []replaySample
	var all []results.EpisodeRecord
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		eps, err := f.store.Episodes(r.req.Name)
		if err != nil {
			b.fail(r.req.Name, "read episodes: %v", err)
			continue
		}
		src, err := r.req.Source()
		if err != nil {
			return err
		}
		all = append(all, eps...)
		for _, ep := range eps {
			if ep.Index%b.sizes.replayEvery == 0 {
				samples = append(samples, replaySample{op: r.req.Name, want: ep, cfg: experiment.RunConfig{
					Source: src, Seed: ep.Seed, Attack: experiment.AttackSetup{Mode: core.ModeSmart}}})
			}
		}
	}
	// The idle workers poll every 2 ms; stop them before timing episodes
	// on the reference path.
	f.close()
	b.setOutcomes(all)
	queries, ns := fo.timer.totals()
	b.set("core.oracle_queries_per_episode", ratio(float64(queries), float64(len(tracedMS)*b.sizes.fleetRunEpisodes)))
	b.set("core.oracle_ns_per_query", ratio(float64(ns), float64(queries)))
	_, refMS, err := b.replayAll(samples, root)
	b.setEpisodeMS(refMS)
	return err
}

// recompute re-executes every sizes.recomputeEvery-th run of each client
// in-process and checks the served aggregate against it field by field.
func (f *fleet) recompute(b *benchRun, runs []fleetRun) {
	eng := engine.New(engine.WithWorkers(engineWorkers))
	for _, r := range runs {
		if r.err != nil || r.index%b.sizes.recomputeEvery != 0 {
			continue
		}
		want, err := runq.ExecuteRequest(eng, r.req, nil)
		if err != nil {
			b.fail(r.req.Name, "recompute: %v", err)
			continue
		}
		var served results.CampaignRecord
		code, err := f.call(http.MethodGet, "/campaigns/"+r.req.Name, nil, span{}, &served)
		switch {
		case err != nil:
			b.fail(r.req.Name, "GET campaign: %v", err)
		case code != http.StatusOK:
			b.fail(r.req.Name, "GET campaign: status %d", code)
		case !bytes.Equal(recordJSON(served), recordJSON(want)):
			d := results.DiffRecords(r.req.Name, &want, &served)
			b.fail(r.req.Name, "served aggregate differs from its in-process recomputation: %+v", d)
		}
	}
}
