// Command robotack-store is the operator's tool for results stores: it
// migrates JSONL logs into the segmented segstore layout, reports a
// store's size and format, diffs two stores (of either backend), and
// rewrites the segstore shards that out-of-order re-appends took off
// the sorted fast path (nothing else rewrites them).
//
// Subcommands:
//
//	migrate <src.jsonl> <dst-dir>   copy a JSONL store into a fresh segstore
//	stats   <store>...              size/format stats for each store
//	diff    [-check] <a> <b>        campaign-level diff; -check exits 1 on any difference
//	compact <dir>                   synchronously rewrite shards that lost the sorted fast path
//
// Store paths autodetect their backend: a directory (or a missing path
// without a ".jsonl" suffix) is a segstore, anything else the JSONL
// FileStore. diff and stats open stores read-only, so they are safe to
// point at a store another process is serving.
//
// Usage:
//
//	robotack-store migrate sweep.jsonl sweep.seg
//	robotack-store stats sweep.seg other.jsonl
//	robotack-store diff -check sweep.seg replica.seg   # CI: byte-identical or exit 1
//	robotack-store compact sweep.seg
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"

	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/segstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-store:", err)
		os.Exit(1)
	}
}

var errDiffers = fmt.Errorf("stores differ")

func run() error {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: robotack-store <migrate|stats|diff|compact> [args]")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("a subcommand is required")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "migrate":
		return runMigrate(rest)
	case "stats":
		return runStats(rest)
	case "diff":
		return runDiff(rest)
	case "compact":
		return runCompact(rest)
	default:
		return fmt.Errorf("unknown subcommand %q (want migrate, stats, diff or compact)", cmd)
	}
}

func runMigrate(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: robotack-store migrate <src.jsonl> <dst-dir>")
	}
	st, err := segstore.MigrateFromJSONL(args[0], args[1])
	if err != nil {
		return err
	}
	fmt.Printf("migrated %s → %s\n", args[0], args[1])
	printStats(st)
	return nil
}

func runStats(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: robotack-store stats <store>...")
	}
	for _, path := range args {
		st, err := statsOf(path)
		if err != nil {
			return err
		}
		printStats(st)
	}
	return nil
}

// statsOf opens path read-only and reports its stats under the on-disk
// format name (LoadAny materializes JSONL stores in memory, which
// would otherwise report themselves as "mem").
func statsOf(path string) (results.StoreStats, error) {
	format, err := segstore.DetectFormat(path)
	if err != nil {
		return results.StoreStats{}, err
	}
	store, err := segstore.LoadAny(path)
	if err != nil {
		return results.StoreStats{}, err
	}
	st, err := store.Stats()
	if err != nil {
		return results.StoreStats{}, err
	}
	st.Format = format
	st.Path = path
	if format == results.FormatJSONL {
		if fi, err := os.Stat(path); err == nil {
			st.BytesEstimate = fi.Size()
		}
	}
	return st, nil
}

func printStats(st results.StoreStats) {
	exact := "exact"
	if st.Estimated {
		exact = "estimated"
	}
	fmt.Printf("%s: format=%s campaigns=%d episodes=%d (%s) bytes=%d\n",
		st.Path, st.Format, st.Campaigns, st.Episodes, exact, st.BytesEstimate)
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	check := fs.Bool("check", false, "exit 1 unless the stores' campaigns are identical")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: robotack-store diff [-check] <a> <b>")
	}
	a, err := segstore.LoadAny(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := segstore.LoadAny(fs.Arg(1))
	if err != nil {
		return err
	}
	diffs, err := results.Diff(a, b)
	if err != nil {
		return err
	}
	fmt.Printf("diff %s → %s\n", fs.Arg(0), fs.Arg(1))
	fmt.Print(results.FormatDiff(diffs))
	if !*check {
		return nil
	}
	differs := false
	for _, d := range diffs {
		// Rate deltas round-trip losslessly, but -check demands more: the
		// full aggregates must match field for field, the same bar the
		// resume-parity tests hold the backends to.
		if d.A == nil || d.B == nil || d.RunsDelta != 0 || !reflect.DeepEqual(d.A, d.B) {
			fmt.Printf("campaign %q differs\n", d.Name)
			differs = true
		}
	}
	if differs {
		return errDiffers
	}
	fmt.Printf("%d campaigns identical\n", len(diffs))
	return nil
}

func runCompact(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: robotack-store compact <dir>")
	}
	store, err := segstore.Open(args[0])
	if err != nil {
		return err
	}
	n, err := store.Compact()
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d shard(s) rewritten\n", args[0], n)
	return nil
}
