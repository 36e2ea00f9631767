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
// Usage:
//
//	robotack-worker -server http://queuehost:8077
//	robotack-worker -server http://queuehost:8077 -name rack7 -workers 8
//	robotack-worker -server http://queuehost:8077 -poll 2s
//	robotack-worker -server http://queuehost:8077 -batch 64
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
		server    = flag.String("server", "", "robotack-serve base URL, e.g. http://host:8077")
		name      = flag.String("name", fmt.Sprintf("%s-%d", host, os.Getpid()), "worker name reported in leases")
		workers   = flag.Int("workers", engine.DefaultWorkers(), "engine workers per job")
		poll      = flag.Duration("poll", time.Second, "sleep between leases when the queue is empty")
		batch     = flag.Int("batch", runq.DefaultPostBatch, "completed episodes buffered per episode-stream POST (result-upload batching)")
		metrics   = flag.String("metrics", "", "serve Prometheus text at GET /metrics on this address, e.g. :9100 (empty: no metrics server)")
		pprofOn   = flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ (needs -metrics)")
		ftdcPath  = flag.String("ftdc", "", "append periodic binary metric snapshots to this file (decode with robotack-ftdc)")
		ftdcEvery = flag.Duration("ftdc-interval", time.Second, "FTDC snapshot interval")
		traceOn   = flag.Bool("trace", true, "forward span traces for traced jobs to the server's trace sink")
		traceN    = flag.Int("trace-sample", 0, "episode-span sampling, 1-in-N (0: default 1-in-16)")
		logCfg    obs.LogConfig
	)
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *server == "" {
		return fmt.Errorf("-server is required")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1 (got %d)", *batch)
	}
	if *pprofOn && *metrics == "" {
		return fmt.Errorf("-pprof needs -metrics to provide the listen address")
	}
	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		return err
	}

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

	if *ftdcPath != "" {
		capture, err := obs.StartCapture(obs.Default, *ftdcPath, *ftdcEvery)
		if err != nil {
			return fmt.Errorf("ftdc capture: %w", err)
		}
		defer func() {
			if err := capture.Stop(); err != nil {
				logger.Warn("ftdc capture stop", "err", err)
			}
		}()
	}

	w := &runq.Worker{
		Server:      *server,
		Name:        *name,
		Workers:     *workers,
		Poll:        *poll,
		Batch:       *batch,
		Log:         logger,
		NoTrace:     !*traceOn,
		TraceSample: *traceN,
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
