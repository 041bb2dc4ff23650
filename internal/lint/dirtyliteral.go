package lint

import (
	"fmt"
	"go/ast"
)

// DirtyLiteral extends the dirtybit discipline to composite literals.
// dirtybit checks assignments, increments and indexed element writes — but
// `Process{dirty: true}` constructs protocol state with the bit already
// set, bypassing the accessor (and its trace record and DirtyChanged
// notification) without a single assignment statement. The same rule table
// applies; the writer set additionally admits the constructors that
// legitimately build fresh protocol state, and a literal that copies the
// SAME field from an existing value (`Checkpoint{Dirty: c.Dirty}` in a
// clone) is always allowed — it transfers a state the accessors already
// established rather than minting a new one.
type DirtyLiteral struct {
	Rules []DirtyBitRule
}

// NewDirtyLiteral returns the rule set: the dirtybit table plus the
// constructor allowances composite literals need.
func NewDirtyLiteral() *DirtyLiteral {
	cluster := module + "/internal/cluster"
	rules := NewDirtyBit().Rules
	for i := range rules {
		// Clone the writer sets — the tables must not alias dirtybit's.
		w := make(map[string]bool, len(rules[i].Writers)+1)
		for k := range rules[i].Writers {
			w[k] = true
		}
		if rules[i].Pkg == cluster {
			// newNode builds the empty influence/valid vectors.
			w[cluster+".newNode"] = true
		}
		rules[i].Writers = w
	}
	return &DirtyLiteral{Rules: rules}
}

// Name implements Analyzer.
func (a *DirtyLiteral) Name() string { return "dirtyliteral" }

// Doc implements Analyzer.
func (a *DirtyLiteral) Doc() string {
	return "composite literals must not set dirty-bit or checkpoint-lifecycle fields outside allowed writers"
}

// Check implements Analyzer.
func (a *DirtyLiteral) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			out = append(out, a.checkLiteral(pkg, file, lit)...)
			return true
		})
	}
	return out
}

func (a *DirtyLiteral) checkLiteral(pkg *Package, file *ast.File, lit *ast.CompositeLit) []Finding {
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
		if rule.Writers[writer] {
			continue
		}
		if a.sameFieldCopy(pkg, rule, kv.Value) {
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
func (a *DirtyLiteral) sameFieldCopy(pkg *Package, rule DirtyBitRule, value ast.Expr) bool {
	sel, ok := ast.Unparen(value).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	typePkg, typeName, fieldName, ok := selectedField(pkg, sel)
	return ok && typePkg == rule.Pkg && typeName == rule.Type && fieldName == rule.Field
}
