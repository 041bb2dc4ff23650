package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// UncheckedErr flags discarded error returns on the protocol's critical
// paths: transport sends, checkpoint establishment (createCKPT and the
// stable-write lifecycle) and the codecs. A swallowed error on these paths
// turns a detectable fault into a silent recoverability violation — exactly
// the failure class the invariant checker exists to catch — so the error
// must reach a handler.
//
// A call is flagged when its callee's name is in the watch set, it returns
// an error, and that error is dropped: the call stands as an expression
// statement (including go/defer), or the error result is assigned to the
// blank identifier.
type UncheckedErr struct {
	// Names are the function/method names whose error results must be
	// consumed.
	Names map[string]bool
}

// NewUncheckedErr returns the rule with this repository's watch set.
func NewUncheckedErr() *UncheckedErr {
	return &UncheckedErr{Names: map[string]bool{
		"Send": true, "createCKPT": true,
		"Encode": true, "Decode": true, "EncodeSlice": true, "DecodeSlice": true,
		"Begin": true, "Replace": true, "Commit": true,
	}}
}

// Name implements Analyzer.
func (a *UncheckedErr) Name() string { return "uncheckederr" }

// Doc implements Analyzer.
func (a *UncheckedErr) Doc() string {
	return "error returns on Send/createCKPT/codec/stable-write paths must be checked"
}

// Check implements Analyzer.
func (a *UncheckedErr) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				out = append(out, a.checkDiscard(pkg, s.X)...)
			case *ast.GoStmt:
				out = append(out, a.checkDiscard(pkg, s.Call)...)
			case *ast.DeferStmt:
				out = append(out, a.checkDiscard(pkg, s.Call)...)
			case *ast.AssignStmt:
				out = append(out, a.checkBlank(pkg, s)...)
			}
			return true
		})
	}
	return out
}

// watchedCall returns the callee name if the call targets a watched function
// that returns an error, together with the indices of its error results.
func (a *UncheckedErr) watchedCall(pkg *Package, expr ast.Expr) (string, []int, *ast.CallExpr) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", nil, nil
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", nil, nil
	}
	if !a.Names[name] {
		return "", nil, nil
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return "", nil, nil
	}
	var errIdx []int
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				errIdx = append(errIdx, i)
			}
		}
	default:
		if isErrorType(tv.Type) {
			errIdx = append(errIdx, 0)
		}
	}
	if len(errIdx) == 0 {
		return "", nil, nil
	}
	return name, errIdx, call
}

func (a *UncheckedErr) checkDiscard(pkg *Package, expr ast.Expr) []Finding {
	name, _, call := a.watchedCall(pkg, expr)
	if call == nil {
		return nil
	}
	return []Finding{{
		Pos:  pkg.Fset.Position(call.Pos()),
		Rule: a.Name(),
		Message: fmt.Sprintf("error result of %s discarded; a swallowed failure on this path becomes a silent recoverability violation — check it",
			name),
	}}
}

// checkBlank flags watched calls whose error result lands in the blank
// identifier.
func (a *UncheckedErr) checkBlank(pkg *Package, s *ast.AssignStmt) []Finding {
	if len(s.Rhs) != 1 {
		return nil
	}
	name, errIdx, call := a.watchedCall(pkg, s.Rhs[0])
	if call == nil || len(s.Lhs) == 0 {
		return nil
	}
	for _, i := range errIdx {
		if i >= len(s.Lhs) {
			continue
		}
		if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			return []Finding{{
				Pos:  pkg.Fset.Position(s.Lhs[i].Pos()),
				Rule: a.Name(),
				Message: fmt.Sprintf("error result of %s assigned to blank identifier; a swallowed failure on this path becomes a silent recoverability violation — handle it",
					name),
			}}
		}
	}
	return nil
}
