// Command robotack-serve exposes a results store over HTTP and
// runs a durable campaign queue on top of it: POST /runs enqueues
// campaigns that execute under a bounded local concurrency or on
// remote robotack-worker processes, episodes stream into the served
// store, progress streams to clients over Server-Sent Events, and —
// with -queue-dir — queued and interrupted jobs survive restarts,
// resuming bit-identically from the store's episodes.
//
// Endpoints:
//
//	GET  /campaigns                    stored campaign aggregates
//	GET  /campaigns/{name}             one aggregate
//	GET  /campaigns/{name}/episodes    the campaign's episode records
//	GET  /campaigns/{name}/summary     Table II text for one campaign
//	GET  /summary                      Table II + headline summary for the store
//	GET  /stores                       size and format stats for the served store
//	GET  /diff?a=name&b=name           diff two campaigns within the store
//	POST /runs                         queue a campaign
//	GET  /runs | /runs/{id}            queued runs' progress
//	GET  /runs/{id}/events             live progress (Server-Sent Events)
//	DELETE /runs/{id}                  cancel a run
//	POST /lease, /runs/{id}/...        remote-worker protocol (robotack-worker)
//
// The store backend is autodetected from the -store path: an existing
// file or a new ".jsonl"-suffixed path is the JSONL FileStore; a
// directory or any other new path is the segmented segstore, the
// backend for million-episode sweeps, whose open cost tracks index
// size rather than record count. To diff the served store against
// another store, run robotack-store diff on the two paths: it opens
// both read-only, so it is safe beside a running server.
//
// Usage:
//
//	robotack-serve -store results.jsonl
//	robotack-serve -store results.seg -queue-dir queue/
//	robotack-serve -store results.jsonl -queue-dir queue/ -max-concurrent 2
//	robotack-serve -store results.jsonl -addr :9090 -workers 4 -lease-ttl 30s
//	robotack-serve -store results.jsonl -log-level debug -log-json
//	robotack-serve -store results.jsonl -pprof -ftdc serve.ftdc
//	robotack-serve -store results.jsonl -trace traces/   # spans; inspect with robotack-trace
//	curl -s -X POST localhost:8077/runs -d '{"scenario":"DS-2","mode":"smart","runs":20,"seed":300}'
//	curl -N localhost:8077/runs/1/events
//	curl -s localhost:8077/metrics
//
// On SIGINT/SIGTERM the server stops leasing, answers parked lease
// requests with 204, cancels in-flight jobs (journaling them as queued
// so a restart resumes them), flushes the queue journal and the store,
// and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/robotack/robotack/internal/campaignd"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/runq"
	"github.com/robotack/robotack/internal/segstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		storePath = flag.String("store", "", "results store to serve: JSONL file or segstore directory, autodetected (created if missing)")
		addr      = flag.String("addr", ":8077", "listen address")
		workers   = flag.Int("workers", engine.DefaultWorkers(), "engine workers per locally executed run")
		queueDir  = flag.String("queue-dir", "", "directory for the durable run-queue journal (empty: in-memory queue, lost on restart)")
		maxConc   = flag.Int("max-concurrent", 1, "how many queued runs execute locally at once (0: remote workers only)")
		leaseTTL  = flag.Duration("lease-ttl", 30*time.Second, "remote-worker lease duration; a missed heartbeat requeues the job")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		tel       obs.Flags
	)
	tel.RegisterLog(flag.CommandLine)
	tel.RegisterFTDC(flag.CommandLine)
	tel.RegisterTrace(flag.CommandLine)
	flag.Parse()
	if *storePath == "" {
		return fmt.Errorf("-store is required")
	}
	// Submitted runs get deterministic trace IDs, queue and engine spans
	// land in the -trace sink, and remote workers' spans arrive over
	// POST /runs/{id}/spans into the same sink.
	logger, tracer, err := tel.Start("serve")
	if err != nil {
		return err
	}
	defer tel.Stop()

	store, err := segstore.OpenAny(*storePath)
	if err != nil {
		return err
	}
	storeClosed := false
	defer func() {
		if !storeClosed {
			store.Close()
		}
	}()

	queue, err := runq.Open(*queueDir,
		runq.WithMaxConcurrent(*maxConc),
		runq.WithLeaseTTL(*leaseTTL),
		runq.WithLogger(logger),
		runq.WithTracer(tracer),
	)
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/", campaignd.New(store,
		campaignd.WithWorkers(*workers),
		campaignd.WithQueue(queue),
		campaignd.WithLogger(logger),
	))
	mux.Handle("GET /metrics", obs.Handler(obs.Default))
	if *pprofOn {
		obs.RegisterPprof(mux)
	}
	srv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	durable := *queueDir
	if durable == "" {
		durable = "in-memory"
	}
	logger.Info("serving",
		"store", *storePath, "addr", *addr, "queue", durable,
		"local_slots", *maxConc, "workers_per_run", *workers, "lease_ttl", *leaseTTL,
		"pprof", *pprofOn)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	// Drain the queue after the listener closes: no new submissions or
	// leases can arrive, parked lease requests are answered, in-flight
	// jobs are cancelled and journaled as queued, and the journal is
	// flushed — a restart with the same -queue-dir picks them all up
	// again.
	logger.Info("shutting down: draining run queue")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := queue.Shutdown(drainCtx); err != nil {
		return err
	}
	storeClosed = true
	if err := store.Close(); err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}
