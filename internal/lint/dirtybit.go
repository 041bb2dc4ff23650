package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DirtyBitRule protects one struct field carrying dirty-bit or
// checkpoint-lifecycle state: only the listed writer functions may assign
// it. Writers are named "importpath.FuncName" (method receivers are not part
// of the key; function literals are attributed to their enclosing declared
// function).
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
}

// DirtyBit enforces the pseudo-dirty-bit discipline the coordination proofs
// assume: the paper's consistency, recoverability and software-
// recoverability arguments (§4) hold because dirty state transitions happen
// only at the protocol's validation and contamination events, with their
// trace records and DirtyChanged notifications. A stray assignment from
// outside the accessor set silently invalidates every property the runtime
// invariant checker claims to verify, so each protected field names the
// accessors (and the few deliberate recovery-path writers) allowed to touch
// it.
//
// Detected writes are assignments, compound assignments, increments and
// indexed element writes; composite literals constructing a fresh value are
// out of scope.
type DirtyBit struct {
	Rules []DirtyBitRule
}

const module = "github.com/synergy-ft/synergy"

// NewDirtyBit returns the rule set for this repository's protocol state.
func NewDirtyBit() *DirtyBit {
	w := func(names ...string) map[string]bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	mdcd := module + "/internal/mdcd"
	tb := module + "/internal/tb"
	ckpt := module + "/internal/checkpoint"
	cluster := module + "/internal/cluster"
	return &DirtyBit{Rules: []DirtyBitRule{
		// MDCD dirty bits: mutation only via the set* accessors (which
		// trace the transition and fire DirtyChanged), plus the recovery
		// paths that deliberately bypass the hook (RestoreFrom resets the
		// TB side explicitly; CommitUpgrade disengages the coordination)
		// and the constructor.
		{Pkg: mdcd, Type: "Process", Field: "dirty",
			Writers: w(mdcd+".setDirty", mdcd+".NewProcess", mdcd+".RestoreFrom", mdcd+".CommitUpgrade")},
		{Pkg: mdcd, Type: "Process", Field: "pseudoDirty",
			Writers: w(mdcd+".setPseudoDirty", mdcd+".RestoreFrom", mdcd+".CommitUpgrade")},
		{Pkg: mdcd, Type: "Process", Field: "recvDirty",
			Writers: w(mdcd+".setRecvDirty", mdcd+".RestoreFrom", mdcd+".CommitUpgrade")},
		// Generalized protocol (every cluster node): contamination is the
		// influence/valid vector pair and the own-stream counter; they move
		// only in the emission, reception-merge and restore paths. (mergeVec
		// mutates through a helper and is covered by the restriction on its
		// callers' direct writes.)
		{Pkg: cluster, Type: "cnode", Field: "influence", Writers: w(cluster + ".restore")},
		{Pkg: cluster, Type: "cnode", Field: "valid", Writers: w(cluster + ".restore")},
		{Pkg: cluster, Type: "cnode", Field: "ownSN", Writers: w(cluster+".restore", cluster+".emitInternal")},
		// TB checkpoint lifecycle: Ndc moves only on a commit (commitStable,
		// the single funnel for the first attempt and every backoff retry, or
		// the write-through baseline's CommitImmediate), a hardware-recovery
		// rewind, or a durable-storage reload after a node restart; the
		// blocking flag is set at the createCKPT edge and cleared only by
		// finishBlocking (the release-held funnel) or teardown.
		{Pkg: tb, Type: "Checkpointer", Field: "ndc",
			Writers: w(tb+".commitStable", tb+".CommitImmediate", tb+".PrepareRecoveryAt", tb+".ResumeFromStable")},
		{Pkg: tb, Type: "Checkpointer", Field: "inBlocking",
			Writers: w(tb+".createCKPT", tb+".finishBlocking", tb+".Stop", tb+".AbortCycle")},
		{Pkg: tb, Type: "Checkpointer", Field: "expectDirty",
			Writers: w(tb+".createCKPT", tb+".NotifyDirtyChanged")},
		// The checkpoint record's Dirty flag is exported (the invariant
		// checker reads it), but only the snapshot paths (the three-process
		// host and the cluster's tb.Host), content choice and decode may
		// write it.
		{Pkg: ckpt, Type: "Checkpoint", Field: "Dirty",
			Writers: w(ckpt+".Decode", mdcd+".Snapshot", tb+".chooseContents",
				cluster+".Snapshot", cluster+".LatestVolatile")},
	}}
}

// Name implements Analyzer.
func (a *DirtyBit) Name() string { return "dirtybit" }

// Doc implements Analyzer.
func (a *DirtyBit) Doc() string {
	return "dirty-bit and checkpoint-lifecycle fields change only through their protocol accessors"
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

// protectedWrite matches one assignment target (possibly an index
// expression over a map/slice field) against a protected-field rule set.
// It returns the matched rule, the writing function's qualified name, and
// the selector — ok only when the write is NOT allow-listed.
func protectedWrite(pkg *Package, file *ast.File, lhs ast.Expr, rules []DirtyBitRule) (DirtyBitRule, string, *ast.SelectorExpr, bool) {
	target := lhs
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		target = idx.X
	}
	sel, ok := target.(*ast.SelectorExpr)
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

// shortPath trims the module prefix for readable messages.
func shortPath(path string) string {
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return rest
	}
	return path
}
