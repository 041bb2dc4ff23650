package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// CallKind classifies one call-graph edge.
type CallKind int

const (
	// CallStatic is a direct call whose target is a single known function.
	CallStatic CallKind = iota
	// CallDynamic is a call through an interface method; Resolve fans it
	// out to every module type implementing the interface.
	CallDynamic
	// CallRef is not a call at all but a function value referenced —
	// passed as an argument, stored in a variable or field. Whoever holds
	// the value may invoke it, so the edge over-approximates a call.
	CallRef
)

// Call is one outgoing edge of a node.
type Call struct {
	// Kind classifies the edge.
	Kind CallKind
	// Callee is the target: the called function (CallStatic), the
	// interface method (CallDynamic), or the referenced function (CallRef).
	Callee *types.Func
	// Pos locates the call or reference in the caller's body.
	Pos token.Pos
}

// FieldAccess is one read (or atomic operation) on a struct field.
type FieldAccess struct {
	// Field is the accessed field object.
	Field *types.Var
	// Pos locates the access.
	Pos token.Pos
}

// FieldWrite is one write to a struct field, with a shallow summary of the
// written value so the taint engine can decide whether the write taints the
// field without re-walking the AST.
type FieldWrite struct {
	// Field is the written field object.
	Field *types.Var
	// Pos locates the write.
	Pos token.Pos
	// RHSCalls lists the functions called inside the assigned expression.
	RHSCalls []*types.Func
	// RHSReads lists the fields read inside the assigned expression.
	RHSReads []*types.Var
}

// Node is one declared function or method of the program. Function literals
// are folded into their enclosing declaration: a closure's calls, field
// accesses and syntax observations belong to the function that wrote it.
type Node struct {
	// Fn is the declared function object.
	Fn *types.Func
	// PkgPath is the import path of the declaring package.
	PkgPath string
	// Calls holds the outgoing edges in source order.
	Calls []Call
	// MapRanges locates each `range` statement over a map type in the
	// body — Go randomizes that iteration order per run.
	MapRanges []token.Pos
	// CallsSort reports whether the body calls a sorting function
	// (sort.Strings, slices.Sort, …); the taint engine treats it as the
	// canonical sanitizer for map-iteration order.
	CallsSort bool
	// MultiSelects locates each select statement with two or more
	// communication cases and no default arm — when several cases are
	// ready the runtime picks one pseudo-randomly.
	MultiSelects []token.Pos
	// Reads lists plain (non-atomic) field reads.
	Reads []FieldAccess
	// Writes lists plain field writes, address-takings included.
	Writes []FieldWrite
	// Atomics lists fields this function accesses through sync/atomic
	// package functions (atomic.AddUint64(&s.f, 1) and friends).
	Atomics []FieldAccess
}

// Graph is the whole-program call graph, grown one package at a time in
// dependency order and resolved (interface dispatch fan-out) once complete.
type Graph struct {
	pkgs  map[string]*Package
	order []*Package
	nodes map[*types.Func]*Node
	funcs []*Node // insertion order: deterministic iteration for solvers

	resolveOnce sync.Once
	impls       map[*types.Func][]*types.Func
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		pkgs:  make(map[string]*Package),
		nodes: make(map[*types.Func]*Node),
	}
}

// AddPackage walks pkg's functions into the graph. It is idempotent per
// import path, so each of the analyzers sharing the graph may call it.
func (g *Graph) AddPackage(pkg *Package) {
	if _, ok := g.pkgs[pkg.Path]; ok {
		return
	}
	g.pkgs[pkg.Path] = pkg
	g.order = append(g.order, pkg)
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
			g.addFunc(pkg, fn, fd.Body)
		}
	}
}

// Node returns the graph node for fn, or nil if fn is not a declared
// function of an added package.
func (g *Graph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// Nodes returns every node in deterministic (package dependency, then
// source) order.
func (g *Graph) Nodes() []*Node { return g.funcs }

// node returns (creating if needed) the node for a declared function.
func (g *Graph) node(fn *types.Func, pkgPath string) *Node {
	n := g.nodes[fn]
	if n == nil {
		n = &Node{Fn: fn, PkgPath: pkgPath}
		g.nodes[fn] = n
		g.funcs = append(g.funcs, n)
	}
	return n
}

// addFunc records fn's body — calls, function-value references, field
// accesses, and the determinism-relevant syntax observations.
func (g *Graph) addFunc(pkg *Package, fn *types.Func, body *ast.BlockStmt) {
	n := g.node(fn, pkg.Path)
	info := pkg.Info
	// callFun marks identifiers that are the operand of a call expression,
	// so they are not double-counted as function-value references; consumed
	// marks selectors already recorded as writes or atomic operands.
	callFun := make(map[*ast.Ident]bool)
	consumed := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if id := calleeIdent(x); id != nil {
				callFun[id] = true
			}
			callee := StaticCallee(info, x)
			if callee == nil {
				return true
			}
			switch {
			case isInterfaceMethod(callee):
				n.Calls = append(n.Calls, Call{Kind: CallDynamic, Callee: callee, Pos: x.Pos()})
			default:
				n.Calls = append(n.Calls, Call{Kind: CallStatic, Callee: callee, Pos: x.Pos()})
			}
			if p := pkgPathOf(callee); p == "sync/atomic" {
				for _, arg := range x.Args {
					if f, sel := addressedField(info, arg); f != nil {
						n.Atomics = append(n.Atomics, FieldAccess{Field: f, Pos: sel.Pos()})
						consumed[sel] = true
					}
				}
			} else if isSortCall(callee) {
				n.CallsSort = true
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				f, sel := fieldOf(info, lhs)
				if f == nil {
					continue
				}
				consumed[sel] = true
				w := FieldWrite{Field: f, Pos: sel.Pos()}
				// 1:1 assignments summarize their own value; n:1 forms
				// (multi-value call, map commas) summarize the whole RHS.
				rhs := x.Rhs
				if len(x.Lhs) == len(x.Rhs) {
					rhs = x.Rhs[i : i+1]
				}
				for _, e := range rhs {
					summarizeExpr(info, e, &w)
				}
				n.Writes = append(n.Writes, w)
			}
		case *ast.IncDecStmt:
			if f, sel := fieldOf(info, x.X); f != nil {
				consumed[sel] = true
				n.Writes = append(n.Writes, FieldWrite{Field: f, Pos: sel.Pos(), RHSReads: []*types.Var{f}})
			}
		case *ast.UnaryExpr:
			// Taking a field's address outside an atomic call lets the
			// holder read or write it plainly; count it as a write.
			if x.Op == token.AND {
				if f, sel := fieldOf(info, x.X); f != nil && !consumed[sel] {
					consumed[sel] = true
					n.Writes = append(n.Writes, FieldWrite{Field: f, Pos: sel.Pos()})
				}
			}
		case *ast.SelectorExpr:
			if consumed[x] {
				return true
			}
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
					n.Reads = append(n.Reads, FieldAccess{Field: v, Pos: x.Pos()})
				}
			}
		case *ast.Ident:
			if callFun[x] {
				return true
			}
			if ref, ok := info.Uses[x].(*types.Func); ok {
				n.Calls = append(n.Calls, Call{Kind: CallRef, Callee: ref, Pos: x.Pos()})
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					n.MapRanges = append(n.MapRanges, x.Pos())
				}
			}
		case *ast.SelectStmt:
			comm, hasDefault := 0, false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if cc.Comm == nil {
						hasDefault = true
					} else {
						comm++
					}
				}
			}
			if comm >= 2 && !hasDefault {
				n.MultiSelects = append(n.MultiSelects, x.Pos())
			}
		}
		return true
	})
}

// Resolve computes interface-dispatch fan-out: for every dynamic call's
// interface method, the concrete methods of every module type implementing
// the interface. Safe to call from concurrent solvers; runs once.
func (g *Graph) Resolve() {
	g.resolveOnce.Do(func() {
		var concrete []types.Type
		for _, p := range g.order {
			scope := p.Pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
					continue
				}
				concrete = append(concrete, tn.Type())
			}
		}
		g.impls = make(map[*types.Func][]*types.Func)
		for _, n := range g.funcs {
			for _, c := range n.Calls {
				if c.Kind != CallDynamic {
					continue
				}
				if _, done := g.impls[c.Callee]; done {
					continue
				}
				g.impls[c.Callee] = implementations(c.Callee, concrete)
			}
		}
	})
}

// implementations returns the concrete methods satisfying interface method m
// among the given types.
func implementations(m *types.Func, concrete []types.Type) []*types.Func {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, T := range concrete {
		PT := types.NewPointer(T)
		if !types.Implements(T, iface) && !types.Implements(PT, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(PT, true, m.Pkg(), m.Name())
		if tf, ok := obj.(*types.Func); ok {
			out = append(out, tf)
		}
	}
	return out
}

// Callees expands one edge to its possible targets: the single function for
// static and ref edges, the resolved implementation set for dynamic ones
// (Resolve must have run).
func (g *Graph) Callees(c Call) []*types.Func {
	if c.Kind == CallDynamic {
		return g.impls[c.Callee]
	}
	return []*types.Func{c.Callee}
}

// StaticCallee resolves a call expression to the single function object it
// names — a declared function, a method (interface or concrete), or an
// explicitly instantiated generic. Nil for builtins, conversions, and calls
// through computed function values.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeIdent returns the identifier a call expression invokes through, for
// the ref-vs-call disambiguation above.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// fieldOf resolves expr to a struct field selection.
func fieldOf(info *types.Info, expr ast.Expr) (*types.Var, *ast.SelectorExpr) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, nil
	}
	if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
		return v, sel
	}
	return nil, nil
}

// addressedField matches &x.f, the operand shape of sync/atomic calls.
func addressedField(info *types.Info, arg ast.Expr) (*types.Var, *ast.SelectorExpr) {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, nil
	}
	return fieldOf(info, u.X)
}

// summarizeExpr collects the functions called and fields read inside one
// assigned expression into the write summary.
func summarizeExpr(info *types.Info, expr ast.Expr, w *FieldWrite) {
	ast.Inspect(expr, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if fn := StaticCallee(info, x); fn != nil {
				w.RHSCalls = append(w.RHSCalls, fn)
			}
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
					w.RHSReads = append(w.RHSReads, v)
				}
			}
		case *ast.Ident:
			if fn, ok := info.Uses[x].(*types.Func); ok {
				w.RHSCalls = append(w.RHSCalls, fn)
			}
		}
		return true
	})
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// pkgPathOf returns the import path of the package declaring fn, or "".
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isSortCall recognizes the standard sorting entry points, the canonical way
// a function makes map-derived data order-independent.
func isSortCall(fn *types.Func) bool {
	switch pkgPathOf(fn) {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Strings", "Ints", "Float64s", "Slice", "SliceStable":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}
