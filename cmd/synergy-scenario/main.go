// Command synergy-scenario runs declarative fault-tolerance scenarios: one
// spec or a whole corpus directory, in the discrete-event simulator, the
// live middleware stack, or both. Each scenario's invariant expectations
// are evaluated into a pass/fail report; failures write per-scenario report,
// metrics and trace artifacts for post-mortem.
//
// Usage:
//
//	synergy-scenario -spec specs/040-takeover-storm.json
//	synergy-scenario -dir specs -workers 4 -json
//	synergy-scenario -dir specs -prefix 3 -mode sim
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/synergy-ft/synergy/internal/scenario"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "run a single scenario spec file")
		dir       = flag.String("dir", "", "run every *.json spec in a directory")
		mode      = flag.String("mode", "", "restrict to one mode: sim or live (default: each spec's modes)")
		workers   = flag.Int("workers", 1, "concurrent scenario executions (sim only; live runs are serialized)")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON reports to stdout")
		prefix    = flag.Int("prefix", 0, "run only the first N specs of the directory (0 = all)")
		artifacts = flag.String("artifacts", "", "directory for failure artifacts (report JSON, metrics snapshot, trace)")
	)
	flag.Parse()

	if (*specPath == "") == (*dir == "") {
		fmt.Fprintln(os.Stderr, "synergy-scenario: exactly one of -spec or -dir is required")
		os.Exit(2)
	}
	if *mode != "" && *mode != scenario.ModeSim && *mode != scenario.ModeLive {
		fmt.Fprintf(os.Stderr, "synergy-scenario: unknown -mode %q\n", *mode)
		os.Exit(2)
	}

	var specs []*scenario.Spec
	var err error
	if *specPath != "" {
		var spec *scenario.Spec
		spec, err = scenario.LoadFile(*specPath)
		specs = []*scenario.Spec{spec}
	} else {
		specs, err = scenario.LoadDir(*dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "synergy-scenario: %v\n", err)
		os.Exit(2)
	}
	if *prefix > 0 && *prefix < len(specs) {
		specs = specs[:*prefix]
	}

	jobs := scenario.Jobs(specs, *mode)
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "synergy-scenario: no (spec, mode) jobs selected")
		os.Exit(2)
	}

	// Live runs share wall-clock timing and loopback ports; overlapping
	// them distorts latency-sensitive expectations, so only the virtual-
	// time simulator fans out.
	liveWorkers := 1
	simJobs, liveJobs := split(jobs)
	results := scenario.RunCorpus(simJobs, *workers)
	results = append(results, scenario.RunCorpus(liveJobs, liveWorkers)...)

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "ERROR %s [%s]: %v\n", r.Job.Spec.Name, r.Job.Mode, r.Err)
			continue
		}
		if *jsonOut {
			data, err := r.Report.EncodeJSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "synergy-scenario: encode %s: %v\n", r.Report.Name, err)
				os.Exit(2)
			}
			os.Stdout.Write(data)
		} else {
			fmt.Println(r.Report.Summary())
		}
		if !r.Report.Passed {
			failed++
			for _, c := range r.Report.Failures() {
				fmt.Fprintf(os.Stderr, "FAIL %s [%s] %s: %s\n", r.Report.Name, r.Report.Mode, c.Name, c.Detail)
			}
			if *artifacts != "" {
				writeArtifacts(*artifacts, r)
			}
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "synergy-scenario: %d of %d jobs failed\n", failed, len(results))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "synergy-scenario: %d jobs passed\n", len(results))
}

// split separates sim jobs (parallel-safe) from live jobs (serialized).
func split(jobs []scenario.Job) (sim, live []scenario.Job) {
	for _, j := range jobs {
		if j.Mode == scenario.ModeSim {
			sim = append(sim, j)
		} else {
			live = append(live, j)
		}
	}
	return sim, live
}

// writeArtifacts dumps a failed job's report, its final metrics snapshot and
// (for three-process live runs) its protocol trace under dir, named after
// the scenario and mode.
func writeArtifacts(dir string, r scenario.JobResult) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "synergy-scenario: artifacts: %v\n", err)
		return
	}
	base := filepath.Join(dir, r.Report.Name+"-"+r.Report.Mode)
	if data, err := r.Report.EncodeJSON(); err == nil {
		if err := os.WriteFile(base+".json", data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "synergy-scenario: artifacts: %v\n", err)
		}
	}
	if len(r.Trace) > 0 {
		if err := os.WriteFile(base+".trace", r.Trace, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "synergy-scenario: artifacts: %v\n", err)
		}
	}
	var metrics bytes.Buffer
	err := r.Metrics.WriteJSON(&metrics)
	if err == nil {
		err = os.WriteFile(base+".metrics.json", metrics.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "synergy-scenario: artifacts: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "synergy-scenario: artifacts for %s [%s] in %s\n", r.Report.Name, r.Report.Mode, dir)
}
