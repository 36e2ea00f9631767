package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/robotack/robotack/internal/obs/trace"
)

// Flags is the telemetry flag family every binary shares: each member
// has one name, type and meaning wherever it appears. A main registers
// the members it offers, one call each, validates its other arguments
// (a usage error must leave no capture or profile file behind), then
// brackets its work with Start and a deferred Stop.
type Flags struct {
	logLevel   string
	logJSON    bool
	ftdcPath   string
	traceDir   string
	cpuProfile string
	memProfile string

	log     *slog.Logger
	capture *Capture
	cpuFile *os.File
	tracer  *trace.Tracer
}

// RegisterLog adds -log-level and -log-json.
func (f *Flags) RegisterLog(fs *flag.FlagSet) {
	fs.StringVar(&f.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.BoolVar(&f.logJSON, "log-json", false, "emit logs as JSON lines instead of text")
}

// RegisterFTDC adds -ftdc: a capture of the default registry every
// FTDCInterval.
func (f *Flags) RegisterFTDC(fs *flag.FlagSet) {
	fs.StringVar(&f.ftdcPath, "ftdc", "", "append a binary metric snapshot to this file every second (decode with robotack-ftdc)")
}

// RegisterTrace adds -trace: a span-segment ring capped at
// trace.DefaultCapBytes. Every episode is recorded: it annotates its
// engine job's span with its frames and stage latencies.
func (f *Flags) RegisterTrace(fs *flag.FlagSet) {
	fs.StringVar(&f.traceDir, "trace", "", "directory for span-trace segments (inspect with robotack-trace); empty: tracing off")
}

// RegisterProfiles adds -cpuprofile and -memprofile.
func (f *Flags) RegisterProfiles(fs *flag.FlagSet) {
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
}

// Start builds the logger, which writes to stderr, and starts what the
// parsed flags ask for: the FTDC capture, the CPU profile, and a
// tracer for service (nil without -trace). On error nothing is left
// running.
func (f *Flags) Start(service string) (_ *slog.Logger, _ *trace.Tracer, err error) {
	level, err := parseLevel(f.logLevel)
	if err != nil {
		return nil, nil, err
	}
	opts := &slog.HandlerOptions{Level: level}
	f.log = slog.New(slog.NewTextHandler(os.Stderr, opts))
	if f.logJSON {
		f.log = slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	if f.ftdcPath != "" {
		if f.capture, err = StartCapture(Default, f.ftdcPath, FTDCInterval); err != nil {
			return nil, nil, fmt.Errorf("ftdc capture: %w", err)
		}
	}
	if f.cpuProfile != "" {
		if f.cpuFile, err = os.Create(f.cpuProfile); err != nil {
			return nil, nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f.cpuFile); err != nil {
			return nil, nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if f.traceDir != "" {
		sink, err := trace.NewFileSink(f.traceDir, trace.DefaultCapBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("trace sink: %w", err)
		}
		f.tracer = trace.New(service, sink)
	}
	return f.log, f.tracer, nil
}

// Stop writes the heap profile, stops the CPU profile, closes the
// tracer and stops the FTDC capture, logging any failure.
func (f *Flags) Stop() {
	if f.memProfile != "" {
		if err := writeHeapProfile(f.memProfile); err != nil {
			f.log.Error("-memprofile", "err", err)
		}
	}
	f.stop()
}

// stop releases what Start started.
func (f *Flags) stop() {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			f.log.Error("-cpuprofile", "err", err)
		}
	}
	if err := f.tracer.Close(); err != nil {
		f.log.Warn("trace sink close", "err", err)
	}
	if f.capture != nil {
		if err := f.capture.Stop(); err != nil {
			f.log.Warn("ftdc capture stop", "err", err)
		}
	}
}

func writeHeapProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the live set at exit
	if err := pprof.WriteHeapProfile(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// Discard returns a logger that drops everything: the default for
// library types whose caller did not supply one.
func Discard() *slog.Logger { return slog.New(slog.DiscardHandler) }
