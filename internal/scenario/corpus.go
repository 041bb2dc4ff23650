package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/synergy-ft/synergy/internal/campaign"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/trace"
)

// LoadFile parses and validates one spec file.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// LoadDir loads every *.json spec in dir, sorted by filename so corpus
// order — and with it report order and campaign seeding — is stable.
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	specs := make([]*Spec, len(paths))
	for i, p := range paths {
		spec, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// Job names one (spec, mode) execution of a corpus run.
type Job struct {
	Spec *Spec
	Mode string
}

// Jobs expands the corpus into its (spec, mode) grid, filtered to mode
// when non-empty. Order follows the corpus, sim before live per spec.
func Jobs(specs []*Spec, mode string) []Job {
	var jobs []Job
	for _, s := range specs {
		for _, m := range s.RunModes() {
			if mode != "" && m != mode {
				continue
			}
			jobs = append(jobs, Job{Spec: s, Mode: m})
		}
	}
	return jobs
}

// JobResult pairs a job with its report; Err records an execution error
// (as opposed to a failed expectation, which lives in the report). A job
// whose report failed also carries its post-mortem evidence: the run's final
// metrics snapshot and, for a three-process live run, the protocol trace
// rendered one event per line.
type JobResult struct {
	Job     Job
	Report  *Report
	Trace   []byte
	Metrics obs.Snapshot
	Err     error
}

// formatTrace renders a protocol trace one event per line, the failure
// artifact format.
func formatTrace(events []trace.Event) []byte {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// run executes and evaluates one job.
func run(job Job) JobResult {
	res := JobResult{Job: job}
	var o *outcome
	switch job.Mode {
	case ModeSim:
		o, res.Err = runSim(job.Spec)
	case ModeLive:
		o, res.Err = runLive(job.Spec)
	default:
		res.Err = fmt.Errorf("scenario %s: unknown mode %q", job.Spec.Name, job.Mode)
	}
	if res.Err != nil {
		return res
	}
	res.Report = evaluate(job.Spec, o)
	if !res.Report.Passed {
		res.Trace = formatTrace(o.trace)
		res.Metrics = o.snapshot
	}
	return res
}

// RunCorpus executes the jobs across a bounded worker pool, returning
// results in job order regardless of completion order. Execution errors
// are captured per job, not returned, so one broken scenario doesn't
// hide the rest of the matrix.
func RunCorpus(jobs []Job, workers int) []JobResult {
	results, _ := campaign.Run(len(jobs), workers, func(c campaign.Cell) (JobResult, error) {
		return run(jobs[c.Index]), nil
	})
	return results
}
