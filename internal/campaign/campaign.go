// Package campaign fans the independent replications of an experiment
// campaign out across worker goroutines while preserving exact determinism.
//
// Every campaign-shaped experiment in this repository — fig7's
// rate × scheme × trial grid, the violation-count configurations of fig2 and
// fig4, the ablation sweeps — is a set of cells that share nothing: each cell
// builds its own simulator from its own seed and returns a value. That makes
// the campaign layer embarrassingly parallel, but the repository's contract
// is stronger than "parallel": a run must be bit-for-bit reproducible from
// its seed regardless of GOMAXPROCS. The package guarantees that by
// construction:
//
//   - a cell's seed is a pure function of (campaign seed, cell index) — see
//     Seed — never of which worker picks the cell up or when;
//   - each cell owns a private *rand.Rand derived from its seed (no draws
//     from shared sources; the detflow analyzer stays clean);
//   - results land in a slice indexed by cell, so the caller merges them in
//     fixed cell order and parallel output is byte-identical to Workers=1.
//
// Cells must not capture shared mutable state in their closures; everything
// a cell needs beyond its Cell should be read-only campaign parameters.
package campaign

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell identifies one independent replication of a campaign.
type Cell struct {
	// Index is the cell's position in campaign order (0-based). Callers
	// decompose it into their sweep coordinates (rate, scheme, trial, …).
	Index int
	// Seed is the cell's deterministic seed, derived from the campaign
	// seed and Index by Seed. Feed it to the cell's simulator config.
	Seed int64
}

// Rand returns a fresh private random source for the cell. Each call
// constructs a new generator from the cell seed, so a cell's randomness never
// depends on which worker runs it or on any other cell.
func (c Cell) Rand() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// Seed derives the seed of cell i of a campaign keyed by base. It is a pure
// function (a splitmix64-style finalizer over the pair), so the mapping from
// (experiment seed, cell index) to cell seed is stable across runs, worker
// counts, and schedules. Distinct indices produce well-separated seeds even
// when base seeds are small consecutive integers.
func Seed(base int64, cell int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(cell+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Workers normalizes a worker-count knob: values below 1 mean "one worker
// per available CPU" (runtime.GOMAXPROCS), and the count never exceeds the
// number of cells.
func Workers(requested, cells int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn for every cell 0..n-1, fanning the cells out across
// workers goroutines (workers < 1 selects one per CPU; workers = 1 recovers
// strictly sequential execution). The returned slice holds fn's results in
// cell order, so downstream aggregation is deterministic no matter how the
// cells interleaved. If any cells fail, the error of the lowest-indexed
// failing cell is returned — again independent of scheduling.
func Run[T any](n, workers int, fn func(Cell) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)
	workers = Workers(workers, n)
	if workers == 1 {
		// Run in the caller's goroutine: -workers 1 is the reference
		// sequential mode the parallel path is measured against.
		for i := 0; i < n; i++ {
			results[i], errs[i] = fn(Cell{Index: i})
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = fn(Cell{Index: i})
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Seeded is the common case: Run with each cell's Seed pre-derived from
// base. Campaigns whose cells must share one seed (e.g. "identical workload
// across schemes" comparisons) use Run directly and ignore Cell.Seed.
func Seeded[T any](base int64, n, workers int, fn func(Cell) (T, error)) ([]T, error) {
	return Run(n, workers, func(c Cell) (T, error) {
		c.Seed = Seed(base, c.Index)
		return fn(c)
	})
}
