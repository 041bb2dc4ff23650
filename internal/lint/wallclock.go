package lint

import (
	"fmt"
	"go/ast"
)

// WallClock forbids wall-clock reads and real timers outside the packages
// that explicitly own real time. The simulator, the protocols and the
// experiment harness must be deterministic — bit-identical traces for a
// given seed are what make the Figure 2–7 reproductions and the invariant
// checks trustworthy — so time must flow through internal/vtime values
// driven by internal/sim's event queue, never from the machine clock.
type WallClock struct {
	// Allowed lists import paths permitted to touch real time (the live
	// middleware and the packages that drive it against a wall clock).
	Allowed map[string]bool
	// Funcs lists the forbidden functions of package time. Pure
	// arithmetic (time.Duration, time.Unix construction) stays legal.
	Funcs map[string]bool
}

// NewWallClock returns the rule with this repository's configuration.
func NewWallClock() *WallClock {
	return &WallClock{
		Allowed: map[string]bool{
			"github.com/synergy-ft/synergy/internal/live": true,
			// scenario's live runner drives wall-clock probe schedules and
			// fault timers; its sim runner stays on virtual time, which the
			// determinism property test enforces end to end.
			"github.com/synergy-ft/synergy/internal/scenario":    true,
			"github.com/synergy-ft/synergy/cmd/synergy-scenario": true,
			// obs owns the latency-timer indirection (StartTimer /
			// ObserveSince) so instrumented packages never touch time.X
			// themselves; its registry is only wired into live runs, so
			// deterministic paths stay clock-free.
			"github.com/synergy-ft/synergy/internal/obs": true,
			// wall is the execution seam's wall-clock implementation: it
			// reads the machine clock and owns one sleep timer per node
			// loop, so neither assembly (coord, cluster) has to.
			"github.com/synergy-ft/synergy/internal/seam/wall": true,
		},
		Funcs: map[string]bool{
			"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
			"Tick": true, "NewTimer": true, "NewTicker": true,
			"Since": true, "Until": true,
		},
	}
}

// Name implements Analyzer.
func (a *WallClock) Name() string { return "wallclock" }

// Doc implements Analyzer.
func (a *WallClock) Doc() string {
	return "forbid wall-clock reads outside the live middleware; deterministic packages use vtime/sim"
}

// Check implements Analyzer.
func (a *WallClock) Check(pkg *Package) []Finding {
	if a.Allowed[pkg.Path] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pkgNameOf(pkg.Info, id) != "time" || !a.Funcs[sel.Sel.Name] {
				return true
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(sel.Pos()),
				Rule: a.Name(),
				Message: fmt.Sprintf("time.%s reads the wall clock in deterministic package %s; route time through internal/vtime and the simulator's event queue",
					sel.Sel.Name, pkg.Pkg.Name()),
			})
			return true
		})
	}
	return out
}
