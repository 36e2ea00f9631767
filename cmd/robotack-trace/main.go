// Command robotack-trace inspects the span traces robotack-serve and
// robotack-campaign record with -trace: deterministic, cross-process
// traces that follow one campaign run from POST /runs through queue
// wait, lease or local dispatch and the worker's engine down to every
// episode's per-frame perception stage timings, which the episode
// records on its engine-job span.
//
// Subcommands (all take the trace directory as their last argument):
//
//	list          <dir>    one line per trace: id, campaign, span count, services, wall time
//	tree          <dir>    render each trace's span tree (or one, with -trace)
//	critical-path <dir>    the chain of last-finishing spans plus a breakdown:
//	                       queue wait vs lease latency vs compute
//	slowest       <dir>    the slowest episodes with frame-stage breakdowns
//	chrome        <dir>    export Chrome trace_event JSON (load in chrome://tracing
//	                       or https://ui.perfetto.dev)
//
// Usage:
//
//	robotack-trace list traces/
//	robotack-trace critical-path traces/
//	robotack-trace tree -trace 4f2a91c3d05b7e18 traces/
//	robotack-trace slowest -n 12 traces/
//	robotack-trace chrome traces/ > trace.json
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"

	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/results"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: robotack-trace <list|tree|critical-path|slowest|chrome> [flags] <trace-dir>")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("a subcommand is required")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "list":
		return runList(rest)
	case "tree":
		return runTree(rest)
	case "critical-path":
		return runCriticalPath(rest)
	case "slowest":
		return runSlowest(rest)
	case "chrome":
		return runChrome(rest)
	default:
		return fmt.Errorf("unknown subcommand %q (want list, tree, critical-path, slowest or chrome)", cmd)
	}
}

// load reads every span in the directory and groups them into traces.
func load(dir string) ([]*trace.Trace, error) {
	spans, err := trace.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	traces := trace.Collect(spans)
	if len(traces) == 0 {
		return nil, fmt.Errorf("no spans in %s", dir)
	}
	return traces, nil
}

// pick applies a -trace id filter: all traces when unset, exactly the
// named one otherwise.
func pick(traces []*trace.Trace, idHex string) ([]*trace.Trace, error) {
	if idHex == "" {
		return traces, nil
	}
	id, err := trace.ParseID(idHex)
	if err != nil {
		return nil, fmt.Errorf("bad -trace id %q: %w", idHex, err)
	}
	t := trace.Find(traces, id)
	if t == nil {
		return nil, fmt.Errorf("no trace %s in directory", id)
	}
	return []*trace.Trace{t}, nil
}

func stageNames() []string { return perception.StageNames[:] }

func runList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: robotack-trace list <trace-dir>")
	}
	traces, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	trace.FormatList(w, traces)
	return nil
}

func runTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ContinueOnError)
	idHex := fs.String("trace", "", "render only this trace id (hex)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: robotack-trace tree [-trace id] <trace-dir>")
	}
	traces, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if traces, err = pick(traces, *idHex); err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i, t := range traces {
		if i > 0 {
			fmt.Fprintln(w)
		}
		trace.FormatTree(w, t, stageNames())
	}
	return nil
}

func runCriticalPath(args []string) error {
	fs := flag.NewFlagSet("critical-path", flag.ContinueOnError)
	idHex := fs.String("trace", "", "analyze only this trace id (hex)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: robotack-trace critical-path [-trace id] <trace-dir>")
	}
	traces, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if traces, err = pick(traces, *idHex); err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i, t := range traces {
		if i > 0 {
			fmt.Fprintln(w)
		}
		trace.FormatCriticalPath(w, t, stageNames())
	}
	return nil
}

func runSlowest(args []string) error {
	fs := flag.NewFlagSet("slowest", flag.ContinueOnError)
	n := fs.Int("n", 8, "how many episodes to show")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: robotack-trace slowest [-n count] <trace-dir>")
	}
	traces, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	trace.FormatSlowest(w, traces, *n, stageNames())
	return nil
}

func runChrome(args []string) error {
	fs := flag.NewFlagSet("chrome", flag.ContinueOnError)
	idHex := fs.String("trace", "", "export only this trace id (hex)")
	out := fs.String("o", "", "write to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: robotack-trace chrome [-trace id] [-o out.json] <trace-dir>")
	}
	spans, err := trace.ReadDir(fs.Arg(0))
	if err != nil {
		return err
	}
	if *idHex != "" {
		traces, err := pick(trace.Collect(spans), *idHex)
		if err != nil {
			return err
		}
		spans = traces[0].Spans
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans in %s", fs.Arg(0))
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, spans); err != nil {
		return err
	}
	if *out != "" {
		// Replaced whole: a failed export leaves the previous file.
		return results.WriteFileAtomic(*out, buf.Bytes())
	}
	_, err = os.Stdout.Write(buf.Bytes())
	return err
}
