package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"github.com/synergy-ft/synergy/internal/lint/dataflow"
)

// DetFlow is the interprocedural nondeterminism-taint rule. The determinism
// contract the campaigns and differential comparisons rest on is a
// whole-program property: a time.Now() three call hops away, a draw from
// math/rand's global source, a map iterated in randomized order, a select
// whose ready-case choice the runtime randomizes, or an environment read all
// poison a result just as surely as an inline draw. DetFlow runs a forward
// taint analysis over the shared call graph — sources are wall-clock reads
// and real timers, math/rand's global source, process-environment reads,
// unsorted map ranges, and multi-case selects; sanitizers are the packages
// that legitimately own real time plus an explicit function allow-list — and
// reports any function of the protected result-path packages the taint
// reaches.
//
// Findings attach to the statement where taint first enters the protected
// zone and carry the full hop chain, so the fix (sort the keys, inject the
// value, sanitize the helper) is readable off the message.
type DetFlow struct {
	// Protected lists the packages whose functions are result paths: any
	// taint reaching them is a finding.
	Protected map[string]bool
	// SanitizerPkgs lists packages whose functions are trusted clean: the
	// ones that own real time.
	SanitizerPkgs map[string]bool
	// SanitizerFuncs lists fully-qualified functions (types.Func.FullName
	// rendering) individually trusted clean.
	SanitizerFuncs map[string]bool
	// TimeFuncs lists the package time functions treated as wall-clock
	// sources. Pure arithmetic (time.Duration, time.Unix construction) stays
	// legal.
	TimeFuncs map[string]bool
	// RandConstructors lists math/rand functions that build injectable
	// sources rather than drawing from the global one.
	RandConstructors map[string]bool
}

// NewDetFlow returns the rule configured for this repository.
func NewDetFlow() *DetFlow {
	return &DetFlow{
		Protected: map[string]bool{
			module + "/internal/sim":        true,
			module + "/internal/campaign":   true,
			module + "/internal/experiment": true,
		},
		SanitizerPkgs: map[string]bool{
			module + "/internal/live": true,
			// scenario's live runner drives wall-clock probe schedules and
			// fault timers; its sim runner stays on virtual time, which the
			// determinism property test enforces end to end.
			module + "/internal/scenario":    true,
			module + "/cmd/synergy-scenario": true,
			// obs owns the latency-timer indirection (StartTimer /
			// ObserveSince) so instrumented packages never touch time.X
			// themselves; its registry is only wired into live runs, so
			// deterministic paths stay clock-free.
			module + "/internal/obs": true,
			// wall is the execution seam's wall-clock implementation: it
			// reads the machine clock and owns one sleep timer per node
			// loop, so neither assembly (coord, cluster) has to.
			module + "/internal/seam/wall": true,
		},
		SanitizerFuncs: map[string]bool{
			// The checkpoint codec ranges over a counter map only to fill a
			// presence set and a value table indexed by key, then emits the
			// keys in ascending order: the bytes do not depend on the
			// iteration order, and a test pins them against a sort.
			module + "/internal/checkpoint.appendCounts": true,
		},
		TimeFuncs: map[string]bool{
			"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
			"Tick": true, "NewTimer": true, "NewTicker": true,
			"Since": true, "Until": true,
		},
		RandConstructors: map[string]bool{
			"New": true, "NewSource": true, "NewZipf": true,
			"NewPCG": true, "NewChaCha8": true,
		},
	}
}

// Name implements Analyzer.
func (a *DetFlow) Name() string { return "detflow" }

// Doc implements Analyzer.
func (a *DetFlow) Doc() string {
	return "nondeterminism (wall clock, global rand, env, map order, select races) must not reach sim/campaign/experiment result paths"
}

// ExportFacts implements FactExporter: it grows the shared call graph. The
// graph add is idempotent, so the dataflow analyzers can share one walk.
func (a *DetFlow) ExportFacts(pkg *Package, facts *Facts) {
	facts.Dataflow().Graph.AddPackage(DataflowPackage(pkg))
}

// source classifies a call target as a nondeterminism source.
func (a *DetFlow) source(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	method := sig != nil && sig.Recv() != nil
	switch pkg := fn.Pkg(); {
	case pkg == nil:
		return ""
	case pkg.Path() == "time" && !method && a.TimeFuncs[fn.Name()]:
		return "wall clock"
	case (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") && !method &&
		!a.RandConstructors[fn.Name()]:
		return "math/rand global source"
	case pkg.Path() == "os" && !method &&
		(fn.Name() == "Getenv" || fn.Name() == "LookupEnv" || fn.Name() == "Environ"):
		return "process environment"
	}
	return ""
}

// sanitizer reports whether fn's results are trusted deterministic.
func (a *DetFlow) sanitizer(fn *types.Func) bool {
	if fn.Pkg() != nil && a.SanitizerPkgs[fn.Pkg().Path()] {
		return true
	}
	return a.SanitizerFuncs[fn.FullName()]
}

// engine builds (once per run, memoized in the shared dataflow state) the
// taint engine over the completed call graph.
func (a *DetFlow) engine(facts *Facts) *dataflow.Engine {
	return facts.Dataflow().Memo("detflow", func() any {
		return dataflow.NewEngine(facts.Dataflow().Graph, dataflow.TaintConfig{
			Source:             a.source,
			Sanitizer:          a.sanitizer,
			MapRangeSource:     true,
			MultiSelectSource:  true,
			WriterTaintsFields: true,
			TrimPrefix:         module + "/",
		})
	}).(*dataflow.Engine)
}

// Check implements Analyzer: every tainted function declared in a protected
// package is reported — except when its taint is just a call to another
// protected tainted function, whose own finding marks the actual boundary
// crossing (cascades collapse to the entry point).
func (a *DetFlow) Check(pkg *Package) []Finding {
	if pkg.Facts == nil || !a.Protected[pkg.Path] {
		return nil
	}
	eng := a.engine(pkg.Facts)
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			t := eng.TaintOf(fn)
			if t == nil || a.coveredDownstream(eng, t) {
				continue
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(t.Pos),
				Rule: a.Name(),
				Message: fmt.Sprintf("nondeterminism reaches result path %s: %s; deterministic packages must draw time/randomness from injected sources and iterate maps in sorted order",
					fd.Name.Name, eng.PathString(t, pkg.Fset, 8)),
			})
		}
	}
	return out
}

// coveredDownstream reports whether the chain's first hop is a call into
// another protected, tainted function — that callee carries its own finding
// at the true entry point, so repeating it here would only cascade noise up
// the call tree.
func (a *DetFlow) coveredDownstream(eng *dataflow.Engine, t *dataflow.Taint) bool {
	return t.Fn != nil && t.Fn.Pkg() != nil && a.Protected[t.Fn.Pkg().Path()] &&
		eng.TaintOf(t.Fn) != nil
}
