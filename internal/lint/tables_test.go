package lint

import (
	"go/types"
	"strconv"
	"strings"
	"testing"
)

// TestRuleTablesResolve keeps the analyzers' allow-lists from rotting: a
// table row naming a renamed field, or an allowed writer naming a renamed
// function, silently switches its rule off. Every protected field must
// exist in the module, and every listed function and package must resolve
// to a declaration in it.
func TestRuleTablesResolve(t *testing.T) {
	pkgs, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*types.Package, len(pkgs))
	// funcs holds each declared function and method twice: as the
	// "importpath.Name" key the writer tables use and as its FullName.
	funcs := make(map[string]bool)
	for _, p := range pkgs {
		byPath[p.Path] = p.Pkg
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				funcs[p.Path+"."+name] = true
				funcs[obj.FullName()] = true
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					funcs[p.Path+"."+m.Name()] = true
					funcs[m.FullName()] = true
				}
			}
		}
	}

	fields := func(table string, rules []DirtyBitRule) {
		for _, r := range rules {
			var obj *types.TypeName
			if p := byPath[r.Pkg]; p != nil {
				obj, _ = p.Scope().Lookup(r.Type).(*types.TypeName)
			}
			if obj == nil {
				t.Errorf("%s: type %s.%s does not exist", table, r.Pkg, r.Type)
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			found := false
			for i := 0; ok && i < st.NumFields(); i++ {
				found = found || st.Field(i).Name() == r.Field
			}
			if !found {
				t.Errorf("%s: %s.%s has no field %s", table, r.Pkg, r.Type, r.Field)
			}
			for _, names := range []map[string]bool{r.Writers, r.Constructors, r.HelperCallers} {
				resolve(t, table, funcs, names)
			}
		}
	}
	packages := func(table string, paths map[string]bool) {
		for path := range paths {
			if byPath[path] == nil {
				t.Errorf("%s: package %s does not exist", table, path)
			}
		}
	}

	fields("dirtybit", NewDirtyBit().Rules)
	vt := NewVTimeMono()
	packages("vtimemono TimePkg", map[string]bool{vt.TimePkg: true})
	fields("vtimemono Clocks", vt.Clocks)
	mp := NewMsgProvenance()
	packages("msgprovenance MsgPkg", map[string]bool{mp.MsgPkg: true})
	resolve(t, "msgprovenance Decoders", funcs, mp.Decoders)
	resolve(t, "msgprovenance CounterWriters", funcs, mp.CounterWriters)
	df := NewDetFlow()
	resolve(t, "detflow SanitizerFuncs", funcs, df.SanitizerFuncs)
	packages("detflow SanitizerPkgs", df.SanitizerPkgs)
	packages("detflow Protected", df.Protected)
	packages("wallclock Allowed", NewWallClock().Allowed)
}

// resolve reports each name that is not a declared function or method.
func resolve(t *testing.T, table string, funcs map[string]bool, names map[string]bool) {
	t.Helper()
	for name := range names {
		if !funcs[name] {
			t.Errorf("%s: %s is not a declared function or method (renamed? the entry now allows nothing)",
				table, strings.TrimPrefix(name, module+"/"))
		}
	}
}

// TestEveryInternalPackageIsImported keeps packages that nothing uses from
// lingering: every package under internal/ must be imported by another
// non-test package of the module. A package only tests import is code to
// delete.
func TestEveryInternalPackageIsImported(t *testing.T) {
	pkgs, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	imported := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil && path != p.Path {
					imported[path] = true
				}
			}
		}
	}
	checked := 0
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, module+"/internal/") {
			continue
		}
		checked++
		if !imported[p.Path] {
			t.Errorf("%s is imported by no non-test package of the module", strings.TrimPrefix(p.Path, module+"/"))
		}
	}
	if checked == 0 {
		t.Fatal("no internal packages loaded")
	}
}
