// Command robotack-worker executes queued campaign runs for a
// robotack-serve instance on another (or the same) machine: it leases
// jobs over HTTP, runs the episodes on a local engine pool,
// heartbeats so the server knows the job is alive, and streams every
// completed episode record back into the served results store.
// Several workers against one server drain the queue concurrently;
// losing a worker mid-run costs nothing — the lease expires, the job
// requeues, and the next executor resumes from the episodes that
// already landed, bit-identically.
//
// An idle worker's lease request parks on the server until a job
// arrives (a long poll), so a queued job starts without waiting out a
// poll interval. -poll is the minimum interval between lease requests
// when the server answers without waiting: it paces them against a
// queue that is shutting down, which answers 204 at once.
//
// Usage:
//
//	robotack-worker -server http://queuehost:8077
//	robotack-worker -server http://queuehost:8077 -name rack7 -workers 8
//	robotack-worker -server http://queuehost:8077 -poll 2s
//	robotack-worker -server http://queuehost:8077 -metrics :9100 -pprof
//	robotack-worker -server http://queuehost:8077 -log-json -ftdc worker.ftdc
//
// On SIGINT/SIGTERM the worker stops leasing, aborts its in-flight
// job and hands it back to the queue (fail with requeue), then exits 0.
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

	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/runq"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-worker:", err)
		os.Exit(1)
	}
}

func run() error {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	var (
		server  = flag.String("server", "", "robotack-serve base URL, e.g. http://host:8077")
		name    = flag.String("name", fmt.Sprintf("%s-%d", host, os.Getpid()), "worker name reported in leases")
		workers = flag.Int("workers", engine.DefaultWorkers(), "engine workers per job")
		poll    = flag.Duration("poll", time.Second, "minimum interval between lease requests when a server answers without waiting")
		metrics = flag.String("metrics", "", "serve Prometheus text at GET /metrics on this address, e.g. :9100 (empty: no metrics server)")
		pprofOn = flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ (needs -metrics)")
		tel     obs.Flags
	)
	tel.RegisterLog(flag.CommandLine)
	tel.RegisterFTDC(flag.CommandLine)
	flag.Parse()
	if *server == "" {
		return fmt.Errorf("-server is required")
	}
	if *pprofOn && *metrics == "" {
		return fmt.Errorf("-pprof needs -metrics to provide the listen address")
	}
	logger, _, err := tel.Start("worker")
	if err != nil {
		return err
	}
	defer tel.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", obs.Handler(obs.Default))
		if *pprofOn {
			obs.RegisterPprof(mux)
		}
		msrv := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("metrics server failed", "addr", *metrics, "err", err)
			}
		}()
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = msrv.Shutdown(shutCtx)
		}()
	}

	w := &runq.Worker{
		Server:  *server,
		Name:    *name,
		Workers: *workers,
		Poll:    *poll,
		Log:     logger,
	}
	logger.Info("worker starting",
		"worker", *name, "server", *server, "engine_workers", *workers,
		"metrics", *metrics, "pprof", *pprofOn)
	if err := w.Run(ctx); err != nil {
		return err
	}
	logger.Info("worker shut down", "worker", *name)
	return nil
}
