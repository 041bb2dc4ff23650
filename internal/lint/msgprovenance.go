package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MsgProvenance enforces the message-identity discipline the coordination
// proofs assume: msg_SN and the per-channel sequence number exist so that
// receivers can deduplicate post-recovery re-sends and the recoverability
// checker can match every sent-but-unreceived message to a restorable log
// entry (PAPER.md §3). That only works if every msg.Message placed on a
// channel carries SN/ChanSeq drawn from the owning process's own monotone
// counter — a literal, recomputed or copied-from-elsewhere sequence number
// forges a message identity and silently breaks duplicate suppression and
// the lost/orphan-message accounting.
//
// The check is cross-package: an export pass (run in dependency order)
// records which struct fields behave as monotone counters — uint64 fields,
// or maps, slices and arrays with uint64 elements (a ProcID-indexed counter
// vector), that are advanced only by ++
// outside the allow-listed restore paths — and the check pass then requires
// the SN and ChanSeq values of every Message composite literal (and every
// direct assignment to those fields) to read such a counter, copy the field
// from another Message, or appear inside an allow-listed decoder that
// reconstitutes stored messages from bytes.
type MsgProvenance struct {
	// MsgPkg is the import path of the package declaring Message.
	MsgPkg string
	// Fields names the protected identity fields of Message.
	Fields map[string]bool
	// Decoders lists qualified functions ("importpath.Func") allowed to set
	// identity fields from decoded bytes.
	Decoders map[string]bool
	// CounterWriters lists qualified functions whose direct assignments to
	// a counter field do not disqualify it — the deliberate restore paths
	// that rewind counters to a checkpointed value.
	CounterWriters map[string]bool
}

// NewMsgProvenance returns the rule configured for this repository.
func NewMsgProvenance() *MsgProvenance {
	return &MsgProvenance{
		MsgPkg: module + "/internal/msg",
		Fields: map[string]bool{"SN": true, "ChanSeq": true},
		Decoders: map[string]bool{
			module + "/internal/msg.Decode": true,
		},
		CounterWriters: map[string]bool{
			module + "/internal/mdcd.RestoreFrom": true,
			module + "/internal/cluster.restore":  true,
		},
	}
}

// Name implements Analyzer.
func (a *MsgProvenance) Name() string { return "msgprovenance" }

// Doc implements Analyzer.
func (a *MsgProvenance) Doc() string {
	return "message SN/ChanSeq come from the owning process's monotone counter, never literals or recomputation"
}

// counterCandidate accumulates the evidence for one field during the export
// pass.
type counterCandidate struct {
	incremented  bool
	disqualified bool
}

// ExportFacts implements FactExporter: it records the package's monotone
// counter fields. A field qualifies when its type is uint64 (or a map, slice
// or array with uint64 elements), it is incremented somewhere in its declaring
// package, and every other write is either a whole-container reset from
// make() or sits in an allow-listed restore path.
func (a *MsgProvenance) ExportFacts(pkg *Package, facts *Facts) {
	cands := make(map[types.Object]*counterCandidate)
	cand := func(obj types.Object) *counterCandidate {
		c := cands[obj]
		if c == nil {
			c = &counterCandidate{}
			cands[obj] = c
		}
		return c
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.IncDecStmt:
				if obj := a.counterField(pkg, s.X); obj != nil {
					if s.Tok == token.INC {
						cand(obj).incremented = true
					} else {
						cand(obj).disqualified = true
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					obj := a.counterField(pkg, lhs)
					if obj == nil {
						continue
					}
					writer := pkg.Path + "." + enclosingFunc(file, lhs.Pos())
					if a.CounterWriters[writer] {
						continue
					}
					// A whole-container reset (p.sentTo = make(...)) re-keys
					// the counter without rewinding any existing stream.
					if _, isIdx := lhs.(*ast.IndexExpr); !isIdx && i < len(s.Rhs) && isMakeCall(s.Rhs[i]) {
						continue
					}
					cand(obj).disqualified = true
				}
			}
			return true
		})
	}
	for obj, c := range cands {
		if c.incremented && !c.disqualified {
			facts.SetCounter(obj)
		}
	}
}

// counterField resolves an assignment target to a field object of counter
// shape: a uint64 field, or (through an index expression) a map, slice or
// array field — named types included — with uint64 elements. Nil when the
// target is anything else.
func (a *MsgProvenance) counterField(pkg *Package, expr ast.Expr) types.Object {
	target := expr
	viaIndex := false
	if idx, ok := expr.(*ast.IndexExpr); ok {
		target = idx.X
		viaIndex = true
	}
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection := pkg.Info.Selections[sel]
	if selection == nil {
		return nil
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	t := v.Type().Underlying()
	if viaIndex {
		var elem types.Type
		switch c := t.(type) {
		case *types.Map:
			elem = c.Elem()
		case *types.Slice:
			elem = c.Elem()
		case *types.Array:
			elem = c.Elem()
		}
		if elem == nil || !isUint64(elem) {
			return nil
		}
		return v
	}
	if !isUint64(v.Type()) {
		return nil
	}
	return v
}

func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

func isMakeCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "make"
}

// Check implements Analyzer.
func (a *MsgProvenance) Check(pkg *Package) []Finding {
	if pkg.Facts == nil {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.CompositeLit:
				out = append(out, a.checkLiteral(pkg, file, s)...)
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !a.isIdentityField(pkg, sel) {
						continue
					}
					var rhs ast.Expr
					if i < len(s.Rhs) {
						rhs = s.Rhs[i]
					}
					out = append(out, a.checkValue(pkg, file, sel.Sel.Name, sel.Pos(), rhs)...)
				}
			}
			return true
		})
	}
	return out
}

// checkLiteral validates the identity fields of one Message composite
// literal.
func (a *MsgProvenance) checkLiteral(pkg *Package, file *ast.File, lit *ast.CompositeLit) []Finding {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return nil
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != a.MsgPkg || named.Obj().Name() != "Message" {
		return nil
	}
	var out []Finding
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !a.Fields[key.Name] {
			continue
		}
		out = append(out, a.checkValue(pkg, file, key.Name, kv.Pos(), kv.Value)...)
	}
	return out
}

// isIdentityField reports whether sel selects a protected field of the
// Message type.
func (a *MsgProvenance) isIdentityField(pkg *Package, sel *ast.SelectorExpr) bool {
	typePkg, typeName, fieldName, ok := selectedField(pkg, sel)
	return ok && typePkg == a.MsgPkg && typeName == "Message" && a.Fields[fieldName]
}

// checkValue decides whether value is a legitimate source for the identity
// field named field.
func (a *MsgProvenance) checkValue(pkg *Package, file *ast.File, field string, pos token.Pos, value ast.Expr) []Finding {
	writer := pkg.Path + "." + enclosingFunc(file, pos)
	if a.Decoders[writer] {
		return nil
	}
	if value != nil && a.counterSourced(pkg, field, value) {
		return nil
	}
	return []Finding{{
		Pos:  pkg.Fset.Position(pos),
		Rule: a.Name(),
		Message: fmt.Sprintf("Message.%s set from a value that is not the owning process's counter (in %s); sequence numbers must read a monotone counter field (or copy the field from an existing Message) so duplicate suppression and lost/orphan accounting stay sound",
			field, writer),
	}}
}

// counterSourced reports whether value reads a recorded monotone counter —
// a counter field selector, an index into a counter map, slice or array
// field — or
// copies the same identity field from an existing Message.
func (a *MsgProvenance) counterSourced(pkg *Package, field string, value ast.Expr) bool {
	switch e := ast.Unparen(value).(type) {
	case *ast.SelectorExpr:
		if selection := pkg.Info.Selections[e]; selection != nil {
			if pkg.Facts.Counter(selection.Obj()) {
				return true
			}
		}
		// m.SN copied from another Message preserves the identity the
		// original sender minted.
		typePkg, typeName, fieldName, ok := selectedField(pkg, e)
		return ok && typePkg == a.MsgPkg && typeName == "Message" && fieldName == field
	case *ast.IndexExpr:
		sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		selection := pkg.Info.Selections[sel]
		return selection != nil && pkg.Facts.Counter(selection.Obj())
	}
	return false
}
