package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HelperMut attributes mutation performed inside a helper to the caller
// that handed it guarded state. dirtybit sees `p.valid[c] = v` but not
// `mergeVec(p.valid, src)` — the write happens in the helper's body, on a
// parameter, where the field identity is gone. Since maps, slices and
// pointers share their referent, passing a guarded field into a mutating
// helper IS a write to the field at the call site, and must be confined to
// the same kind of allow-list.
//
// An export pass (dependency-ordered, so cross-package helpers work)
// computes a per-parameter may-mutate summary for every function: direct
// element/pointee writes, the mutating builtins (delete, clear, copy), and
// — iterated to a fixed point within the package — parameters forwarded to
// other known-mutating functions. The check pass then flags call sites that
// pass a protected field (per its own writer table) into a mutating
// parameter position from outside the allow-list.
type HelperMut struct {
	// Rules lists the protected fields; Writers names the callers allowed
	// to pass the field into a mutating helper.
	Rules []DirtyBitRule
}

// NewHelperMut returns the rule set for this repository. The writer sets
// here are the helper-mediated complement of dirtybit's direct-write sets:
// the cluster nodes' influence/valid vectors move via mergeVec from the
// reception-merge, validation and acceptance paths.
func NewHelperMut() *HelperMut {
	w := func(names ...string) map[string]bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cluster := module + "/internal/cluster"
	return &HelperMut{Rules: []DirtyBitRule{
		{Pkg: cluster, Type: "cnode", Field: "influence",
			Writers: w(cluster+".restore", cluster+".ingest")},
		{Pkg: cluster, Type: "cnode", Field: "valid",
			Writers: w(cluster+".restore", cluster+".emitExternal", cluster+".onValidated", cluster+".Accept")},
	}}
}

// Name implements Analyzer.
func (a *HelperMut) Name() string { return "helpermut" }

// Doc implements Analyzer.
func (a *HelperMut) Doc() string {
	return "passing a guarded field into a mutating helper counts as writing it at the call site"
}

// ExportFacts implements FactExporter: it summarizes which parameters each
// function may mutate. The pass iterates to a fixed point so helpers that
// forward parameters to other in-package mutators are summarized too; facts
// of imported packages are already complete (dependency order).
func (a *HelperMut) ExportFacts(pkg *Package, facts *Facts) {
	type fn struct {
		obj    types.Object
		body   *ast.BlockStmt
		params map[types.Object]int
		nparam int
	}
	var fns []fn
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok {
				continue
			}
			params := make(map[types.Object]int)
			for i := 0; i < sig.Params().Len(); i++ {
				params[sig.Params().At(i)] = i
			}
			fns = append(fns, fn{obj: obj, body: fd.Body, params: params, nparam: sig.Params().Len()})
		}
	}
	paramOf := func(f fn, e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		i, ok := f.params[pkg.Info.Uses[id]]
		return i, ok
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			mark := func(i int) {
				cur := facts.MutatedParams(f.obj)
				if cur == nil || !cur[i] {
					facts.SetParamMutated(f.obj, f.nparam, i)
					changed = true
				}
			}
			target := func(lhs ast.Expr) ast.Expr {
				e, viaSelector := mutationTarget(lhs)
				if e == nil {
					return nil
				}
				if viaSelector {
					// p.f = v reaches the caller only through a pointer.
					tv, ok := pkg.Info.Types[e]
					if !ok {
						return nil
					}
					if _, isPtr := tv.Type.Underlying().(*types.Pointer); !isPtr {
						return nil
					}
				}
				return e
			}
			ast.Inspect(f.body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						if i, ok := paramOf(f, target(lhs)); ok {
							mark(i)
						}
					}
				case *ast.IncDecStmt:
					if i, ok := paramOf(f, target(s.X)); ok {
						mark(i)
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
						switch id.Name {
						case "delete", "clear":
							if len(s.Args) > 0 {
								if i, ok := paramOf(f, s.Args[0]); ok {
									mark(i)
								}
							}
							return true
						case "copy":
							if len(s.Args) > 0 {
								if i, ok := paramOf(f, s.Args[0]); ok {
									mark(i)
								}
							}
							return true
						}
					}
					// Forwarding a parameter into another mutator's
					// mutating position propagates the summary.
					if mut := facts.MutatedParams(calleeObject(pkg, s)); mut != nil {
						for argIdx, arg := range s.Args {
							if argIdx < len(mut) && mut[argIdx] {
								if i, ok := paramOf(f, arg); ok {
									mark(i)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
}

// mutationTarget unwraps an assignment target to the expression whose
// referent is mutated: s[k] = v and *p = v mutate s and p; p.f = v mutates
// p when p is a pointer (viaSelector lets the caller apply that type test).
func mutationTarget(lhs ast.Expr) (e ast.Expr, viaSelector bool) {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		return t.X, false
	case *ast.StarExpr:
		return t.X, false
	case *ast.SelectorExpr:
		return t.X, true
	}
	return nil, false
}

// Check implements Analyzer: call sites passing a protected field into a
// mutating parameter position are writes by the enclosing function.
func (a *HelperMut) Check(pkg *Package) []Finding {
	if pkg.Facts == nil {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeObject(pkg, call)
			mut := pkg.Facts.MutatedParams(callee)
			if mut == nil {
				return true
			}
			for i, arg := range call.Args {
				if i >= len(mut) || !mut[i] {
					continue
				}
				sel, ok := guardedArg(arg)
				if !ok {
					continue
				}
				typePkg, typeName, fieldName, ok := selectedField(pkg, sel)
				if !ok {
					continue
				}
				rule, ok := fieldRule(a.Rules, typePkg, typeName, fieldName)
				if !ok {
					continue
				}
				writer := pkg.Path + "." + enclosingFunc(file, call.Pos())
				if rule.Writers[writer] {
					continue
				}
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(arg.Pos()),
					Rule: a.Name(),
					Message: fmt.Sprintf("%s.%s.%s is guarded state passed into %s, which mutates that parameter (in %s); helper-mediated writes are confined to the same allow-list as direct ones",
						shortPath(typePkg), typeName, fieldName, callee.Name(), writer),
				})
			}
			return true
		})
	}
	return out
}

// guardedArg unwraps an argument expression to the field selector whose
// referent the callee would mutate: the field itself (map/slice/pointer
// share structurally), an element of it, or its address.
func guardedArg(arg ast.Expr) (*ast.SelectorExpr, bool) {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(idx.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	return sel, ok
}
