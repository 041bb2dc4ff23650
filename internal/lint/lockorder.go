package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/synergy-ft/synergy/internal/lint/dataflow"
)

// LockOrder is the cross-package static deadlock rule. lockedblocking stops
// a critical section from blocking on channels and sockets, but two code
// paths that take the same two mutexes in opposite orders deadlock without
// any channel in sight — and in this repository the risky pairs span
// packages: a live node's mutex held while calling into coord, storage's
// backend lock taken during a checkpoint flush that the middleware initiated
// under its own lock. The ROADMAP's N-node cluster and high-throughput
// transport work multiply exactly these interleavings.
//
// The export pass (exportLocks, shared with lockedblocking) replays every
// function through the flow-sensitive lock tracker, canonicalizing each
// mutex to a lock *class* ("pkg.Type.field" for struct-field mutexes,
// "pkg.var" otherwise) and recording direct nested acquisitions, calls made
// while holding locks, and withLock-style helpers that run a func parameter
// under a lock (closure arguments to such helpers are analyzed with the
// helper's lock seeded). The check pass closes acquisitions transitively
// over the shared call graph, builds the lock-order digraph, and reports
// each cycle once, at its earliest edge. Same-class self-cycles (locking
// many instances of one class, e.g. every node's mutex in id order) are
// deliberately not reported — the order among instances is an
// instance-level invariant this class abstraction cannot judge.
type LockOrder struct {
	// IncludeSelf also reports same-lock-class self-cycles.
	IncludeSelf bool
}

// NewLockOrder returns the rule configured for this repository.
func NewLockOrder() *LockOrder { return &LockOrder{} }

// Name implements Analyzer.
func (a *LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (a *LockOrder) Doc() string {
	return "cross-package mutex acquisition order must be acyclic (static deadlock detection)"
}

// ExportFacts implements FactExporter: it grows the shared call graph and
// records the package's lock observations.
func (a *LockOrder) ExportFacts(pkg *Package, facts *Facts) {
	facts.Dataflow().Graph.AddPackage(DataflowPackage(pkg))
	exportLocks(pkg, facts)
}

// exportLocks records pkg's lock observations in the run's lock graph:
// lockorder solves the acquisitions, lockedblocking reads the lock-wrapping
// helpers. Whichever of the two exports a package first walks it; the other
// finds it done.
func exportLocks(pkg *Package, facts *Facts) {
	lg := facts.Dataflow().Locks
	if !lg.FirstWalk(pkg.Path) {
		return
	}
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
			walkLocks(pkg, lg, fn, fd.Body.List, nil)
		}
	}
	// Closure arguments to withLock-style helpers run inside the helper's
	// critical section: replay each literal with the helper's locks seeded.
	// Dependency-ordered exports make cross-package helpers visible here.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, _ := calleeObject(pkg, call).(*types.Func)
			if callee == nil {
				return true
			}
			for i, h := range lg.HelperParams(callee) {
				if i >= len(call.Args) {
					continue
				}
				lit, ok := call.Args[i].(*ast.FuncLit)
				if !ok {
					continue
				}
				fn := enclosingFuncObj(pkg, file, call.Pos())
				if fn == nil {
					continue
				}
				walkLocks(pkg, lg, fn, lit.Body.List, h.Locks)
			}
			return true
		})
	}
}

// walkLocks replays one body through the lock tracker, attributing every
// observation to fn. seeded locks (the withLock case) are considered held
// on entry.
func walkLocks(pkg *Package, lg *dataflow.LockGraph, fn *types.Func, body []ast.Stmt, seeded []dataflow.LockID) {
	sig, _ := fn.Type().(*types.Signature)
	params := make(map[types.Object]int)
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if _, isFunc := p.Type().Underlying().(*types.Signature); isFunc {
				params[p] = i
			}
		}
	}
	// ids maps the walker's textual lock keys to canonical lock classes;
	// every held key passed through onLock first, so lookups always hit.
	ids := make(map[string]dataflow.LockID)
	held0 := lockState{}
	for _, id := range seeded {
		ids[string(id)] = id
		held0[string(id)] = token.NoPos
	}
	heldIDs := func(held lockState) []dataflow.LockID {
		out := make([]dataflow.LockID, 0, len(held))
		for k := range held {
			if id, ok := ids[k]; ok {
				out = append(out, id)
			}
		}
		return out
	}
	w := &lockWalker{pkg: pkg}
	w.onLock = func(sel *ast.SelectorExpr, key string, pos token.Pos, held lockState) {
		id := lockID(pkg, sel.X, fn)
		ids[key] = id
		lg.AddDirect(fn, id, pos)
		for k := range held {
			if outer, ok := ids[k]; ok {
				lg.AddPair(fn, outer, id, pos)
			}
		}
	}
	w.onCall = func(call *ast.CallExpr, held lockState) {
		if len(held) == 0 {
			return
		}
		hIDs := heldIDs(held)
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if i, isParam := params[pkg.Info.Uses[id]]; isParam {
				lg.SetHelperParam(fn, i, dataflow.HelperLock{Locks: hIDs, Held: held.holders()})
				return
			}
		}
		callee := dataflow.StaticCallee(pkg.Info, call)
		if callee == nil {
			return
		}
		kind := dataflow.CallStatic
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			kind = dataflow.CallDynamic
		}
		lg.AddLockedCall(fn, dataflow.Call{Kind: kind, Callee: callee, Pos: call.Pos()}, hIDs)
	}
	w.stmts(body, held0)
}

// lockID canonicalizes a mutex receiver expression to its lock class: the
// declaring type and field for struct-field mutexes, the package variable
// for package-level ones, a function-scoped name otherwise.
func lockID(pkg *Package, recv ast.Expr, fn *types.Func) dataflow.LockID {
	if sel, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok {
		if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
				return dataflow.LockID(fmt.Sprintf("%s.%s.%s",
					shortPath(named.Obj().Pkg().Path()), named.Obj().Name(), s.Obj().Name()))
			}
		}
		// A package-qualified mutex (other.Mu) is the same class as the
		// bare Mu seen inside its own package.
		if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return dataflow.LockID(shortPath(v.Pkg().Path()) + "." + v.Name())
		}
	}
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return dataflow.LockID(shortPath(v.Pkg().Path()) + "." + v.Name())
			}
			// A local mutex variable — or a receiver that embeds the
			// mutex; prefer the embedding type as the class.
			if named := namedOf(v.Type()); named != nil && named.Obj().Pkg() != nil {
				return dataflow.LockID(shortPath(named.Obj().Pkg().Path()) + "." + named.Obj().Name())
			}
			return dataflow.LockID(shortPath(pkg.Path) + "." + fn.Name() + "." + v.Name())
		}
	}
	return dataflow.LockID(shortPath(pkg.Path) + "." + types.ExprString(recv))
}

// Check implements Analyzer: it solves the lock graph once and reports each
// cycle in the package owning the cycle's earliest edge.
func (a *LockOrder) Check(pkg *Package) []Finding {
	if pkg.Facts == nil {
		return nil
	}
	st := pkg.Facts.Dataflow()
	cycles := st.Memo("lockorder", func() any {
		return st.Locks.Solve(st.Graph, a.IncludeSelf)
	}).([]dataflow.LockCycle)
	if len(cycles) == 0 {
		return nil
	}
	mine := make(map[string]bool, len(pkg.Files))
	for _, f := range pkg.Files {
		mine[pkg.Fset.Position(f.Pos()).Filename] = true
	}
	var out []Finding
	for _, c := range cycles {
		e := representativeEdge(pkg.Fset, c)
		pos := pkg.Fset.Position(e.Pos)
		if !mine[pos.Filename] {
			continue
		}
		out = append(out, Finding{
			Pos:  pos,
			Rule: a.Name(),
			Message: fmt.Sprintf("potential deadlock: lock-order cycle %s; this statement acquires %s while holding %s%s — establish one global acquisition order (or document the invariant that rules the cycle out and suppress with reason)",
				c.Locks(), e.Inner, e.Outer, viaString(pkg.Fset, e.Via)),
		})
	}
	return out
}

// representativeEdge picks the cycle's earliest edge by source position, so
// each cycle is reported exactly once at a stable location.
func representativeEdge(fset *token.FileSet, c dataflow.LockCycle) dataflow.LockEdge {
	best := c.Edges[0]
	bp := fset.Position(best.Pos)
	for _, e := range c.Edges[1:] {
		p := fset.Position(e.Pos)
		if p.Filename < bp.Filename || (p.Filename == bp.Filename && p.Line < bp.Line) {
			best, bp = e, p
		}
	}
	return best
}

// viaString renders the call chain of a transitive acquisition.
func viaString(fset *token.FileSet, via *dataflow.AcqStep) string {
	if via == nil {
		return ""
	}
	var parts []string
	for s := via; s != nil; s = s.Next {
		pos := fset.Position(s.Pos)
		file := pos.Filename
		if i := strings.LastIndexByte(file, '/'); i >= 0 {
			file = file[i+1:]
		}
		parts = append(parts, fmt.Sprintf("%s @ %s:%d", s.Desc, file, pos.Line))
	}
	return " (via " + strings.Join(parts, " -> ") + ")"
}

// enclosingFuncObj resolves the declared function containing pos.
func enclosingFuncObj(pkg *Package, file *ast.File, pos token.Pos) *types.Func {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos > fd.End() {
			continue
		}
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		return fn
	}
	return nil
}
