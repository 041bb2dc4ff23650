package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DirtyBitRule protects one struct field carrying dirty-bit or
// checkpoint-lifecycle state: only the listed functions may write it, each
// write shape with its own list. Functions are named "importpath.FuncName"
// (method receivers are not part of the key; function literals are
// attributed to their enclosing declared function).
type DirtyBitRule struct {
	// Pkg is the import path of the package declaring the struct type.
	Pkg string
	// Type is the struct type's name.
	Type string
	// Field is the protected field.
	Field string
	// Writers lists the qualified functions allowed to assign the field
	// (or an element of it, for map- or slice-typed fields).
	Writers map[string]bool
	// Constructors lists the functions that build fresh protocol state and
	// so may also set the field in a composite literal.
	Constructors map[string]bool
	// HelperCallers lists the functions allowed to pass the field into a
	// helper that mutates it. Writers get no such allowance.
	HelperCallers map[string]bool
}

// DirtyBit enforces the pseudo-dirty-bit discipline the coordination proofs
// assume: the paper's consistency, recoverability and software-
// recoverability arguments (§4) hold because dirty state transitions happen
// only at the protocol's validation and contamination events, with their
// trace records and DirtyChanged notifications. A stray write from outside
// the accessor set silently invalidates every property the runtime
// invariant checker claims to verify, so each protected field names the
// accessors (and the few deliberate recovery-path writers) allowed to touch
// it.
//
// Three write shapes are checked against one table:
//
//   - assignments, compound assignments, increments and indexed element
//     writes, against Writers;
//   - composite literals (`Process{dirty: true}` mints the bit without an
//     assignment), against Writers and Constructors. A literal copying the
//     SAME field from an existing value (`Checkpoint{Dirty: c.Dirty}` in a
//     clone) transfers a state the accessors already established and is
//     always allowed;
//   - passing the field (or an element, or its address) into a helper that
//     mutates that parameter, against HelperCallers. Maps, slices and
//     pointers share their referent, so `mergeVec(p.valid, src)` writes
//     p.valid at the call site even though the helper's body only sees a
//     parameter.
//
// The helper summaries come from an export pass (dependency-ordered, so
// cross-package helpers work): a per-parameter may-mutate vector built from
// direct element/pointee writes, the mutating builtins (delete, clear,
// copy), and — iterated to a fixed point within the package — parameters
// forwarded to other known-mutating functions.
type DirtyBit struct {
	Rules []DirtyBitRule
}

const module = "github.com/synergy-ft/synergy"

// set builds a membership map from names.
func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// NewDirtyBit returns the rule set for this repository's protocol state.
func NewDirtyBit() *DirtyBit {
	mdcd := module + "/internal/mdcd"
	tb := module + "/internal/tb"
	ckpt := module + "/internal/checkpoint"
	cluster := module + "/internal/cluster"
	// newNode builds every cluster node's empty contamination state.
	newNode := set(cluster + ".newNode")
	return &DirtyBit{Rules: []DirtyBitRule{
		// MDCD dirty bits: mutation only via the set* accessors (which
		// trace the transition and fire DirtyChanged), plus the recovery
		// paths that deliberately bypass the hook (RestoreFrom resets the
		// TB side explicitly; CommitUpgrade disengages the coordination)
		// and the constructor.
		{Pkg: mdcd, Type: "Process", Field: "dirty",
			Writers: set(mdcd+".setDirty", mdcd+".NewProcess", mdcd+".RestoreFrom", mdcd+".CommitUpgrade")},
		{Pkg: mdcd, Type: "Process", Field: "pseudoDirty",
			Writers: set(mdcd+".setPseudoDirty", mdcd+".RestoreFrom", mdcd+".CommitUpgrade")},
		{Pkg: mdcd, Type: "Process", Field: "recvDirty",
			Writers: set(mdcd+".setRecvDirty", mdcd+".RestoreFrom", mdcd+".CommitUpgrade")},
		// Generalized protocol (every cluster node): contamination is the
		// influence/valid vector pair and the own-stream counter; they move
		// only in the emission, reception-merge and restore paths. The
		// vectors also move through helpers: mergeVec from the
		// reception-merge and acceptance paths, applyRaises from validation.
		{Pkg: cluster, Type: "cnode", Field: "influence",
			Writers:       set(cluster + ".restore"),
			Constructors:  newNode,
			HelperCallers: set(cluster+".restore", cluster+".ingest")},
		{Pkg: cluster, Type: "cnode", Field: "valid",
			Writers:       set(cluster + ".restore"),
			Constructors:  newNode,
			HelperCallers: set(cluster+".restore", cluster+".emitExternal", cluster+".onValidated", cluster+".Accept")},
		{Pkg: cluster, Type: "cnode", Field: "ownSN",
			Writers:      set(cluster+".restore", cluster+".emitInternal"),
			Constructors: newNode},
		// TB checkpoint lifecycle: Ndc moves only on a commit (commitStable,
		// the single funnel for the first attempt and every backoff retry, or
		// the write-through baseline's CommitImmediate), a hardware-recovery
		// rewind, or a durable-storage reload after a node restart; the
		// blocking flag is set at the createCKPT edge and cleared only by
		// finishBlocking (the release-held funnel) or teardown.
		{Pkg: tb, Type: "Checkpointer", Field: "ndc",
			Writers: set(tb+".commitStable", tb+".CommitImmediate", tb+".PrepareRecoveryAt", tb+".ResumeFromStable")},
		{Pkg: tb, Type: "Checkpointer", Field: "inBlocking",
			Writers: set(tb+".createCKPT", tb+".finishBlocking", tb+".Stop", tb+".AbortCycle")},
		{Pkg: tb, Type: "Checkpointer", Field: "expectDirty",
			Writers: set(tb+".createCKPT", tb+".NotifyDirtyChanged")},
		// The checkpoint record's Dirty flag is exported (the invariant
		// checker reads it), but only decode and the three-process volatile
		// slot's record builder may write it: a stable write encodes its
		// contents in place and builds no record.
		{Pkg: ckpt, Type: "Checkpoint", Field: "Dirty",
			Writers: set(ckpt+".Decode", mdcd+".materialise")},
	}}
}

// Name implements Analyzer.
func (a *DirtyBit) Name() string { return "dirtybit" }

// Doc implements Analyzer.
func (a *DirtyBit) Doc() string {
	return "dirty-bit and checkpoint-lifecycle fields change only through their protocol accessors, in assignments, literals and helper calls"
}

// Check implements Analyzer.
func (a *DirtyBit) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					out = append(out, a.checkWrite(pkg, file, lhs)...)
				}
			case *ast.IncDecStmt:
				out = append(out, a.checkWrite(pkg, file, s.X)...)
			case *ast.CompositeLit:
				out = append(out, a.checkLiteral(pkg, file, s)...)
			case *ast.CallExpr:
				out = append(out, a.checkHelperCall(pkg, file, s)...)
			}
			return true
		})
	}
	return out
}

// checkWrite matches one assignment target against the protected fields.
// Indexed writes (p.influence[c] = v) protect the field through the index
// expression.
func (a *DirtyBit) checkWrite(pkg *Package, file *ast.File, lhs ast.Expr) []Finding {
	rule, writer, sel, ok := protectedWrite(pkg, file, lhs, a.Rules)
	if !ok {
		return nil
	}
	return []Finding{{
		Pos:  pkg.Fset.Position(sel.Pos()),
		Rule: a.Name(),
		Message: fmt.Sprintf("%s.%s.%s is protocol state written outside its accessor set (in %s); route the mutation through an allowed accessor so the transition is traced and coordinated",
			shortPath(rule.Pkg), rule.Type, rule.Field, writer),
	}}
}

// checkLiteral matches the keyed elements of one composite literal against
// the protected fields.
func (a *DirtyBit) checkLiteral(pkg *Package, file *ast.File, lit *ast.CompositeLit) []Finding {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return nil
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	typePkg := named.Obj().Pkg().Path()
	typeName := named.Obj().Name()
	var out []Finding
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		rule, ok := fieldRule(a.Rules, typePkg, typeName, key.Name)
		if !ok {
			continue
		}
		writer := pkg.Path + "." + enclosingFunc(file, kv.Pos())
		if rule.Writers[writer] || rule.Constructors[writer] || sameFieldCopy(pkg, rule, kv.Value) {
			continue
		}
		out = append(out, Finding{
			Pos:  pkg.Fset.Position(kv.Pos()),
			Rule: a.Name(),
			Message: fmt.Sprintf("%s.%s.%s is protocol state set in a composite literal outside its accessor set (in %s); construct the value clean and route the transition through an allowed accessor",
				shortPath(typePkg), typeName, key.Name, writer),
		})
	}
	return out
}

// sameFieldCopy reports whether value reads the same protected field from
// an existing value of the same type (the clone/copy pattern).
func sameFieldCopy(pkg *Package, rule DirtyBitRule, value ast.Expr) bool {
	sel, ok := ast.Unparen(value).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	typePkg, typeName, fieldName, ok := selectedField(pkg, sel)
	return ok && typePkg == rule.Pkg && typeName == rule.Type && fieldName == rule.Field
}

// checkHelperCall flags a call passing a protected field into a parameter
// position its callee may mutate: the write belongs to the enclosing
// function.
func (a *DirtyBit) checkHelperCall(pkg *Package, file *ast.File, call *ast.CallExpr) []Finding {
	callee := calleeObject(pkg, call)
	mut := pkg.Facts.MutatedParams(callee)
	if mut == nil {
		return nil
	}
	var out []Finding
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
		if rule.HelperCallers[writer] {
			continue
		}
		out = append(out, Finding{
			Pos:  pkg.Fset.Position(arg.Pos()),
			Rule: a.Name(),
			Message: fmt.Sprintf("%s.%s.%s is guarded state passed into %s, which mutates that parameter (in %s); helper-mediated writes are confined to the same allow-list as direct ones",
				shortPath(typePkg), typeName, fieldName, callee.Name(), writer),
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

// ExportFacts implements FactExporter: it summarizes which parameters each
// function may mutate. The pass iterates to a fixed point so helpers that
// forward parameters to other in-package mutators are summarized too; facts
// of imported packages are already complete (dependency order).
func (a *DirtyBit) ExportFacts(pkg *Package, facts *Facts) {
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
						case "delete", "clear", "copy":
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

// fieldRule matches a field described by (package, type, field) against a
// rule set.
func fieldRule(rules []DirtyBitRule, typePkg, typeName, fieldName string) (DirtyBitRule, bool) {
	for _, rule := range rules {
		if rule.Pkg == typePkg && rule.Type == typeName && rule.Field == fieldName {
			return rule, true
		}
	}
	return DirtyBitRule{}, false
}

// selectedField resolves a selector expression to the named type and field
// it selects; ok is false for non-field selections.
func selectedField(pkg *Package, sel *ast.SelectorExpr) (typePkg, typeName, fieldName string, ok bool) {
	selection := pkg.Info.Selections[sel]
	if selection == nil {
		return "", "", "", false
	}
	v, isVar := selection.Obj().(*types.Var)
	if !isVar || !v.IsField() {
		return "", "", "", false
	}
	named := namedOf(selection.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), v.Name(), true
}

// protectedWrite matches one assignment target (possibly an element of a
// map, slice or array field, at any depth) against a protected-field rule
// set. It returns the matched rule, the writing function's qualified name,
// and the selector — ok only when the write is NOT allow-listed.
func protectedWrite(pkg *Package, file *ast.File, lhs ast.Expr, rules []DirtyBitRule) (DirtyBitRule, string, *ast.SelectorExpr, bool) {
	sel, ok := writtenField(lhs)
	if !ok {
		return DirtyBitRule{}, "", nil, false
	}
	typePkg, typeName, fieldName, ok := selectedField(pkg, sel)
	if !ok {
		return DirtyBitRule{}, "", nil, false
	}
	rule, ok := fieldRule(rules, typePkg, typeName, fieldName)
	if !ok {
		return DirtyBitRule{}, "", nil, false
	}
	writer := pkg.Path + "." + enclosingFunc(file, sel.Pos())
	if rule.Writers[writer] {
		return DirtyBitRule{}, "", nil, false
	}
	return rule, writer, sel, true
}

// writtenField unwraps an assignment target down to the selector of the
// field it writes into: every index level (r.rows[to][from] = v, where a
// row pointer is dereferenced implicitly), explicit dereferences
// ((*r.rows[to])[from] = v) and parentheses.
func writtenField(lhs ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch t := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = t.X
		case *ast.StarExpr:
			lhs = t.X
		case *ast.SelectorExpr:
			return t, true
		default:
			return nil, false
		}
	}
}

// shortPath trims the module prefix for readable messages.
func shortPath(path string) string {
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return rest
	}
	return path
}
