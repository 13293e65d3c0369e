package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// Report is the machine-readable form of an experiment run, written by
// `upabench -json`. Tables carry the same cells as the text output, so a
// result file diffs cleanly against a rerun on the same machine.
type Report struct {
	// Scale is "quick" or "full".
	Scale string `json:"scale"`
	// GoVersion, GOOS/GOARCH, and NumCPU describe the machine the numbers
	// came from — wall-clock results are only comparable within one host.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Note carries run-specific caveats (e.g. a core-count limitation).
	Note string `json:"note,omitempty"`
	// Experiments are the runs, in index order.
	Experiments []ExperimentReport `json:"experiments"`
}

// ExperimentReport is one experiment's rendered tables. The host facts
// (GOOS/GOARCH/NumCPU) are stamped per experiment, not only at the report
// top level, because a result file's experiments may be merged from runs on
// different hosts, and cross-platform merges need each experiment to say
// which platform produced it.
type ExperimentReport struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	GOOS   string  `json:"goos"`
	GOARCH string  `json:"goarch"`
	NumCPU int     `json:"num_cpu"`
	Tables []Table `json:"tables"`
}

// NewReport builds an empty report stamped with the host description.
func NewReport(scale string) *Report {
	return &Report{
		Scale:     scale,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Add appends one experiment's tables to the report, stamped with the
// host's platform and core count.
func (r *Report) Add(id, title string, tabs []Table) {
	r.Experiments = append(r.Experiments, ExperimentReport{
		ID: id, Title: title,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Tables: tabs,
	})
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
