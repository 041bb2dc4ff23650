package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockedBlocking flags operations that can block indefinitely while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives, blocking
// selects, time.Sleep, and network dial/listen/read/write calls. In the live
// transport a blocked send under the node or interconnect lock wedges
// exactly the path recovery needs to make progress (recovery must take every
// node's lock to flush the interconnect), so these must happen outside
// critical sections — or through an explicitly non-blocking construct such
// as a select with a default arm, which this rule deliberately permits.
//
// The analysis is intra-function and flow-sensitive: branches are analyzed
// with a copy of the held-lock set and re-merged by intersection, so an
// early-unlock-and-return arm does not poison the fall-through path.
// Function literals are analyzed with an empty held set (a goroutine body
// does not inherit the spawner's critical section) — except a literal
// handed to a lock-wrapping helper such as
//
//	func (n *node) withLock(fn func()) { n.mu.Lock(); defer n.mu.Unlock(); fn() }
//
// whose whole purpose is to run the closure INSIDE the critical section.
// Such a literal is walked again with the helper's lock held, and its
// findings say so. The helpers come from the lock graph's export pass
// (exportLocks, shared with lockorder), which records every func-typed
// parameter a function invokes while holding a lock.
type LockedBlocking struct{}

// NewLockedBlocking returns the rule.
func NewLockedBlocking() *LockedBlocking { return &LockedBlocking{} }

// Name implements Analyzer.
func (a *LockedBlocking) Name() string { return "lockedblocking" }

// Doc implements Analyzer.
func (a *LockedBlocking) Doc() string {
	return "forbid blocking channel/network/sleep operations while a sync mutex is held, including in closures run by lock-wrapping helpers"
}

// ExportFacts implements FactExporter: it records the lock-wrapping
// helpers.
func (a *LockedBlocking) ExportFacts(pkg *Package, facts *Facts) { exportLocks(pkg, facts) }

// Check implements Analyzer.
func (a *LockedBlocking) Check(pkg *Package) []Finding {
	w := &lockWalker{pkg: pkg, rule: a.Name()}
	var helped []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w.stmts(n.Body.List, lockState{})
				}
			case *ast.CallExpr:
				helped = append(helped, a.helperClosures(pkg, n)...)
			}
			return true
		})
	}
	return append(w.findings, helped...)
}

// helperClosures walks each function literal argument of call that the
// callee runs under a lock, with the helper's lock held.
func (a *LockedBlocking) helperClosures(pkg *Package, call *ast.CallExpr) []Finding {
	callee, _ := calleeObject(pkg, call).(*types.Func)
	if callee == nil || pkg.Facts == nil {
		return nil
	}
	var out []Finding
	for i, h := range pkg.Facts.Dataflow().Locks.HelperParams(callee) {
		if i >= len(call.Args) {
			continue
		}
		lit, ok := call.Args[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		w := &lockWalker{pkg: pkg, rule: a.Name()}
		w.stmts(lit.Body.List, lockState{h.Held: call.Pos()})
		for _, f := range w.findings {
			f.Message += " (lock held by the wrapping helper)"
			out = append(out, f)
		}
	}
	return out
}

// lockState maps a mutex receiver expression (rendered as source text) to
// the position where it was locked.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// intersect keeps only locks held in both states.
func intersect(a, b lockState) lockState {
	out := lockState{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func (s lockState) holders() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	return strings.Join(keys, ", ")
}

type lockWalker struct {
	pkg      *Package
	rule     string
	findings []Finding
	// onCall, when set, observes every call expression together with the
	// lock state held at that point (exportLocks uses it to record locked
	// calls and helpers that invoke a parameter under a lock).
	onCall func(call *ast.CallExpr, held lockState)
	// onLock, when set, observes every Lock/RLock together with the
	// receiver selector and the locks already held at that point
	// (exportLocks uses it to build the acquisition graph).
	onLock func(sel *ast.SelectorExpr, key string, pos token.Pos, held lockState)
}

// stmts analyzes a statement list, threading the held-lock state through it,
// and returns the state at its end.
func (w *lockWalker) stmts(list []ast.Stmt, held lockState) lockState {
	for _, stmt := range list {
		held = w.stmt(stmt, held)
	}
	return held
}

func (w *lockWalker) stmt(stmt ast.Stmt, held lockState) lockState {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, op, sel, ok := w.mutexOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				if w.onLock != nil {
					w.onLock(sel, key, s.Pos(), held)
				}
				held = held.clone()
				held[key] = s.Pos()
			case "Unlock", "RUnlock":
				held = held.clone()
				delete(held, key)
			}
			return held
		}
		w.scan(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the remainder of the
		// function; anything else deferred runs at exit, analyzed fresh.
		if _, op, _, ok := w.mutexOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return held
		}
		for _, arg := range s.Call.Args {
			w.scan(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, lockState{})
		}
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the critical section.
		for _, arg := range s.Call.Args {
			w.scan(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, lockState{})
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			w.report(s.Pos(), fmt.Sprintf("channel send while holding %s", held.holders()))
		}
		w.scan(s.Chan, lockState{})
		w.scan(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scan(e, held)
		}
		for _, e := range s.Lhs {
			w.scan(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scan(e, held)
		}
	case *ast.IncDecStmt:
		w.scan(s.X, held)
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.scan(e, held)
				return false
			}
			return true
		})
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scan(s.Cond, held)
		thenEnd := w.stmts(s.Body.List, held.clone())
		elseEnd := held
		elseTerm := false
		if s.Else != nil {
			elseEnd = w.stmt(s.Else, held.clone())
			elseTerm = terminates([]ast.Stmt{s.Else})
		}
		switch {
		case terminates(s.Body.List) && elseTerm:
			return held // code after is unreachable
		case terminates(s.Body.List):
			return elseEnd
		case elseTerm:
			return thenEnd
		default:
			return intersect(thenEnd, elseEnd)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scan(s.Cond, held)
		}
		body := w.stmts(s.Body.List, held.clone())
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		// The loop may run zero times: the fall-through state is the entry
		// state intersected with the body's exit (a body that unlocks must
		// not leave the lock considered held forever after).
		if terminates(s.Body.List) {
			return held
		}
		return intersect(held, body)
	case *ast.RangeStmt:
		if len(held) > 0 {
			if t, ok := w.pkg.Info.Types[s.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					w.report(s.Pos(), fmt.Sprintf("range over channel while holding %s", held.holders()))
				}
			}
		}
		w.scan(s.X, held)
		body := w.stmts(s.Body.List, held.clone())
		if terminates(s.Body.List) {
			return held
		}
		return intersect(held, body)
	case *ast.SelectStmt:
		blocking := true
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				blocking = false // default arm: non-blocking select
			}
		}
		if blocking && len(held) > 0 {
			w.report(s.Pos(), fmt.Sprintf("blocking select while holding %s", held.holders()))
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, held.clone())
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scan(s.Tag, held)
		}
		return w.caseClauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		return w.caseClauses(s.Body.List, held)
	}
	return held
}

// caseClauses analyzes switch arms and merges their exit states by
// intersection (terminating arms excluded).
func (w *lockWalker) caseClauses(clauses []ast.Stmt, held lockState) lockState {
	// Without a default arm the fall-through keeps the entry state, so the
	// merge starts from it either way.
	merged := held
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		end := w.stmts(cc.Body, held.clone())
		if !terminates(cc.Body) {
			merged = intersect(merged, end)
		}
	}
	return merged
}

// scan inspects an expression tree for blocking operations performed under
// held locks. Function literal bodies are analyzed separately with an empty
// held set.
func (w *lockWalker) scan(expr ast.Expr, held lockState) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			w.stmts(e.Body.List, lockState{})
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && len(held) > 0 {
				w.report(e.Pos(), fmt.Sprintf("channel receive while holding %s", held.holders()))
			}
		case *ast.CallExpr:
			if w.onCall != nil {
				w.onCall(e, held)
			}
			if len(held) > 0 {
				if msg := w.blockingCall(e); msg != "" {
					w.report(e.Pos(), fmt.Sprintf("%s while holding %s", msg, held.holders()))
				}
			}
		}
		return true
	})
}

// mutexOp recognizes x.Lock / x.RLock / x.Unlock / x.RUnlock where the
// method belongs to sync.Mutex or sync.RWMutex (directly or embedded),
// returning the receiver's source rendering, the operation, and the call's
// selector.
func (w *lockWalker) mutexOp(expr ast.Expr) (key, op string, sel *ast.SelectorExpr, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall {
		return "", "", nil, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", nil, false
	}
	obj := w.pkg.Info.Uses[sel.Sel]
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	return types.ExprString(sel.X), name, sel, true
}

// blockingCall classifies a call as potentially blocking: time.Sleep,
// network dials/listens, reads/writes on net types, io copy helpers, and
// sync waits.
func (w *lockWalker) blockingCall(call *ast.CallExpr) string {
	if path, name, ok := qualifiedCallee(w.pkg.Info, call); ok {
		switch {
		case path == "time" && name == "Sleep":
			return "time.Sleep"
		case path == "net" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen")):
			return "net." + name
		case path == "io" && (name == "ReadFull" || name == "Copy" || name == "ReadAll"):
			return "io." + name
		}
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "net":
		switch fn.Name() {
		case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
			return "net I/O " + fn.Name()
		}
	case "sync":
		if fn.Name() == "Wait" {
			return "sync wait"
		}
	}
	return ""
}

func (w *lockWalker) report(pos token.Pos, msg string) {
	w.findings = append(w.findings, Finding{
		Pos:     w.pkg.Fset.Position(pos),
		Rule:    w.rule,
		Message: msg + "; a blocked operation under lock can deadlock recovery — move it outside the critical section or use a non-blocking select",
	})
}

// terminates reports whether a statement list certainly transfers control
// out (return, branch, panic) — used to exclude dead paths from state
// merges.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body.List) && terminates([]ast.Stmt{s.Else})
	}
	return false
}
