package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// VTimeMono guards virtual-time monotonicity. The discrete-event engine's
// causality guarantee — an event never observes a clock earlier than the
// event that scheduled it — and the TB protocol's blocking-window analysis
// (δ + 2ρτ skew bound, PAPER.md §3) both assume that simulated clocks only
// move forward outside the explicit resynchronization path. Arithmetic that
// can rewind a vtime value is therefore forbidden in protocol code:
//
//   - decrementing (--) or subtract-assigning (-=) a vtime.Time;
//   - a subtraction whose result IS a vtime.Time (an instant computed
//     backwards); converting the difference away to a time.Duration is the
//     sanctioned way to measure an interval;
//   - calling Add with a negative constant;
//   - assigning the protected clock fields (the engine's now, a Clock's
//     syncedAt, the simulated seam's per-pair FIFO high-waters) outside their
//     named writer functions.
//
// The vtime package itself is exempt from the arithmetic rules: it is the
// one place instant/duration algebra is implemented.
type VTimeMono struct {
	// TimePkg is the import path of the package declaring the Time type.
	TimePkg string
	// Clocks lists protected clock-carrying fields and their writers.
	Clocks []DirtyBitRule
}

// NewVTimeMono returns the rule configured for this repository.
func NewVTimeMono() *VTimeMono {
	vtime := module + "/internal/vtime"
	sim := module + "/internal/sim"
	seam := module + "/internal/seam"
	return &VTimeMono{
		TimePkg: vtime,
		Clocks: []DirtyBitRule{
			// The engine clock advances only by executing events (Step) or
			// by draining up to a horizon (RunUntil); both only move it
			// forward.
			{Pkg: sim, Type: "Engine", Field: "now",
				Writers: set(sim+".Step", sim+".RunUntil")},
			// A local clock's sync epoch moves only at a resynchronization.
			{Pkg: vtime, Type: "Clock", Field: "syncedAt",
				Writers: set(vtime + ".Resynchronize")},
			// Per-pair FIFO high-waters ratchet forward on each delivery,
			// written into a destination's row by source (Forget drops them
			// with clear, which is no assignment).
			{Pkg: seam, Type: "Sim", Field: "lastArrival",
				Writers: set(seam + ".Deliver")},
		},
	}
}

// Name implements Analyzer.
func (a *VTimeMono) Name() string { return "vtimemono" }

// Doc implements Analyzer.
func (a *VTimeMono) Doc() string {
	return "no arithmetic that can move a vtime clock backwards outside the resynchronization path"
}

// Check implements Analyzer.
func (a *VTimeMono) Check(pkg *Package) []Finding {
	var out []Finding
	arithExempt := pkg.Path == a.TimePkg
	for _, file := range pkg.Files {
		// Subtractions converted away to a non-Time type (time.Duration(a-b))
		// measure an interval rather than computing an earlier instant.
		converted := make(map[ast.Expr]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pkg.Info.Types[call.Fun]
			if !ok || !tv.IsType() || a.isTime(tv.Type) {
				return true
			}
			converted[ast.Unparen(call.Args[0])] = true
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.IncDecStmt:
				if !arithExempt && s.Tok == token.DEC && a.isTimeExpr(pkg, s.X) {
					out = append(out, a.finding(pkg, s.Pos(),
						"decrement of a vtime value moves the clock backwards"))
				}
			case *ast.AssignStmt:
				if !arithExempt && s.Tok == token.SUB_ASSIGN && len(s.Lhs) == 1 && a.isTimeExpr(pkg, s.Lhs[0]) {
					out = append(out, a.finding(pkg, s.Pos(),
						"subtract-assignment on a vtime value moves the clock backwards"))
				}
				for _, lhs := range s.Lhs {
					out = append(out, a.checkClockWrite(pkg, file, lhs)...)
				}
			case *ast.BinaryExpr:
				if !arithExempt && s.Op == token.SUB && a.isTimeExpr(pkg, s) && !converted[s] {
					out = append(out, a.finding(pkg, s.Pos(),
						"subtraction yielding a vtime instant computes an earlier clock value; convert the difference to a time.Duration instead"))
				}
			case *ast.CallExpr:
				if !arithExempt {
					out = append(out, a.checkNegativeAdd(pkg, s)...)
				}
			}
			return true
		})
	}
	return out
}

// checkClockWrite flags assignments to protected clock fields outside their
// writers.
func (a *VTimeMono) checkClockWrite(pkg *Package, file *ast.File, lhs ast.Expr) []Finding {
	rule, writer, sel, ok := protectedWrite(pkg, file, lhs, a.Clocks)
	if !ok {
		return nil
	}
	return []Finding{{
		Pos:  pkg.Fset.Position(sel.Pos()),
		Rule: a.Name(),
		Message: fmt.Sprintf("%s.%s.%s is a monotone clock written outside its advance path (in %s); only the allow-listed writers may move it",
			shortPath(rule.Pkg), rule.Type, rule.Field, writer),
	}}
}

// checkNegativeAdd flags t.Add(-d) on a vtime value with a provably
// negative argument.
func (a *VTimeMono) checkNegativeAdd(pkg *Package, call *ast.CallExpr) []Finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" || len(call.Args) != 1 {
		return nil
	}
	recv, ok := pkg.Info.Types[sel.X]
	if !ok || !a.isTime(recv.Type) {
		return nil
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return nil
	}
	if v, exact := constant.Int64Val(tv.Value); exact && v < 0 {
		return []Finding{a.finding(pkg, call.Pos(),
			"Add with a negative constant moves the clock backwards")}
	}
	return nil
}

func (a *VTimeMono) isTimeExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && a.isTime(tv.Type)
}

// isTime reports whether t is the vtime Time named type.
func (a *VTimeMono) isTime(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == a.TimePkg && named.Obj().Name() == "Time"
}

func (a *VTimeMono) finding(pkg *Package, pos token.Pos, msg string) Finding {
	return Finding{
		Pos:     pkg.Fset.Position(pos),
		Rule:    a.Name(),
		Message: msg + "; virtual time must be monotone outside the resynchronization path or event ordering and the skew bound break",
	}
}
