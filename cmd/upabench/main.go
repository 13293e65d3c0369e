// Command upabench regenerates the evaluation tables of the paper's
// Section 6: for every experiment in DESIGN.md's index it runs the workload
// under each execution strategy and prints the measured series.
//
// Usage:
//
//	upabench                 # run every experiment at quick scale
//	upabench -scale full     # paper-scale window sweeps (slow)
//	upabench -exp e1a,e3a    # run a subset
//	upabench -json > out.json  # machine-readable results (see BENCH_PR2.json)
//	upabench -metrics-addr :9090  # expose the in-progress run's metrics
//	upabench -health         # monitor every run's health, report alert transitions
//	upabench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	exps := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	jsonOut := flag.Bool("json", false, "write results as one JSON report on stdout instead of text tables")
	note := flag.String("note", "", "free-form caveat embedded in the -json report")
	metricsAddr := flag.String("metrics-addr", "", "serve the in-progress run's metrics/pprof on this address (e.g. :9090)")
	health := flag.Bool("health", false, "monitor every run with the engine's built-in health rules and report alert transitions at exit")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *health {
		bench.EnableHealth()
	}

	if *metricsAddr != "" {
		bench.EnableLiveMetrics()
		srv, err := obs.ServeFunc(*metricsAddr, bench.LiveMetrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upabench: metrics endpoint:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	if err := run(*scale, *exps, *list, *jsonOut, *note); err != nil {
		fmt.Fprintln(os.Stderr, "upabench:", err)
		os.Exit(1)
	}
	if *health {
		alerts := bench.DrainAlertLog()
		if len(alerts) == 0 {
			fmt.Fprintln(os.Stderr, "health: no alert transitions across all runs")
		}
		for _, line := range alerts {
			fmt.Fprintln(os.Stderr, "health:", line)
		}
	}
}

func run(scaleName, expFilter string, list, jsonOut bool, note string) error {
	all := bench.Experiments()
	if list {
		for _, e := range all {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var scale bench.Scale
	switch scaleName {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", scaleName)
	}
	want := map[string]bool{}
	if expFilter != "" {
		for _, id := range strings.Split(expFilter, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !hasExperiment(all, id) {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
		}
	}
	var report *bench.Report
	if jsonOut {
		report = bench.NewReport(scaleName)
		report.Note = note
	}
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if !jsonOut {
			fmt.Printf("# %s\n\n", e.Title)
		} else {
			fmt.Fprintf(os.Stderr, "running %s...\n", e.ID)
		}
		tabs, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if jsonOut {
			report.Add(e.ID, e.Title, tabs)
			continue
		}
		for _, t := range tabs {
			if err := bench.WriteTable(os.Stdout, t); err != nil {
				return err
			}
		}
	}
	if jsonOut {
		return report.WriteJSON(os.Stdout)
	}
	return nil
}

func hasExperiment(all []bench.Experiment, id string) bool {
	for _, e := range all {
		if e.ID == id {
			return true
		}
	}
	return false
}
