// Package lint is a protocol-aware static analysis framework for this
// repository, built only on the standard library's go/ast, go/parser,
// go/types and go/token packages.
//
// The coordination proofs reproduced here (PAPER.md §4, checked at runtime
// by internal/invariant) rest on code-level disciplines the compiler cannot
// express: deterministic packages must not read the wall clock, randomness
// must flow through injected *rand.Rand sources, the live transport must not
// block while holding a lock, dirty-bit state must change only through its
// protocol accessors, and error returns on the checkpoint/send paths must be
// checked. Each discipline is an Analyzer; the cmd/synergy-lint driver runs
// them over the module and fails the build on violations.
//
// A finding can be suppressed at its line with
//
//	//lint:ignore <rule> <reason>
//
// either as a trailing comment on the offending line or as a comment on the
// line directly above it. The reason is mandatory: an undocumented
// suppression is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"github.com/synergy-ft/synergy/internal/lint/dataflow"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule names the analyzer that produced the finding.
	Rule string
	// Message describes the violation and the discipline it breaks.
	Message string
}

// String formats the finding as file:line:col: rule: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Package is one loaded, type-checked package presented to analyzers.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset maps AST positions to source locations.
	Fset *token.FileSet
	// Files holds the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's resolution maps.
	Info *types.Info
	// Facts is the shared cross-package fact store, populated by Run's
	// export pass before any Check runs. Nil when an analyzer is invoked
	// outside Run.
	Facts *Facts
}

// Facts carries cross-package conclusions exported in dependency order
// before any Check runs, so an analyzer inspecting package b can reason
// about declarations in an imported package a. Facts are keyed by
// types.Object: the loader type-checks the module once, resolving
// intra-module imports from already-checked packages, so an object's
// identity is stable across the packages that mention it.
type Facts struct {
	// counters marks struct fields that behave as monotone sequence-number
	// counters (see MsgProvenance).
	counters map[types.Object]bool
	// paramMut maps a function to a per-parameter may-mutate vector (see
	// DirtyBit).
	paramMut map[types.Object][]bool
	// df is the shared whole-program dataflow state (call graph, taint
	// engines, lock graph) the interprocedural analyzers build on.
	df *dataflow.State
}

func newFacts() *Facts {
	return &Facts{
		counters: make(map[types.Object]bool),
		paramMut: make(map[types.Object][]bool),
		df:       dataflow.NewState(),
	}
}

// Dataflow returns the run's shared interprocedural dataflow state. The
// dataflow-based analyzers grow its call graph during their export passes
// (serial, dependency-ordered) and solve it memoized during the parallel
// check phase.
func (f *Facts) Dataflow() *dataflow.State {
	if f == nil {
		return nil
	}
	return f.df
}

// DataflowPackage adapts a lint package into the dataflow layer's mirror
// type.
func DataflowPackage(pkg *Package) *dataflow.Package {
	return &dataflow.Package{
		Path:  pkg.Path,
		Fset:  pkg.Fset,
		Files: pkg.Files,
		Pkg:   pkg.Pkg,
		Info:  pkg.Info,
	}
}

// SetCounter records that field is a monotone counter.
func (f *Facts) SetCounter(field types.Object) { f.counters[field] = true }

// Counter reports whether field was recorded as a monotone counter.
func (f *Facts) Counter(field types.Object) bool {
	return f != nil && field != nil && f.counters[field]
}

// SetParamMutated records that fn (with n parameters) may mutate the
// pointee/elements of parameter i.
func (f *Facts) SetParamMutated(fn types.Object, n, i int) {
	s := f.paramMut[fn]
	if s == nil {
		s = make([]bool, n)
		f.paramMut[fn] = s
	}
	if i >= 0 && i < len(s) {
		s[i] = true
	}
}

// MutatedParams returns fn's may-mutate vector, or nil if none recorded.
func (f *Facts) MutatedParams(fn types.Object) []bool {
	if f == nil {
		return nil
	}
	return f.paramMut[fn]
}

// FactExporter is implemented by analyzers that contribute cross-package
// facts. Run calls ExportFacts over every package in dependency order
// before running any Check, so facts about a package are available to the
// checks of its importers (and of the package itself).
type FactExporter interface {
	ExportFacts(pkg *Package, facts *Facts)
}

// Analyzer checks one discipline over a package.
type Analyzer interface {
	// Name is the rule name findings carry and ignore directives reference.
	Name() string
	// Doc is a one-line description of the discipline.
	Doc() string
	// Check returns the package's violations.
	Check(pkg *Package) []Finding
}

// Run applies every analyzer to every package, filters findings through the
// packages' //lint:ignore directives, and returns the survivors sorted by
// position. Malformed directives, and directives naming a rule that is
// neither registered in DefaultAnalyzers nor in the run, produce their own
// findings under the "lint-directive" rule; a directive naming an active
// rule that suppressed nothing is reported under "staleignore" (the
// stale-ignore audit that keeps the allow-list honest as analyzers evolve).
//
// Export passes run serially in dependency order — facts about a package
// must be complete before its importers are analyzed — but the check phase
// fans packages out across goroutines: the loaded packages and the fact
// store are read-only by then, and analyzers keep no mutable check state
// (whole-program solves go through Facts.Dataflow().Memo).
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	// Facts must be complete for a package before any importer is checked,
	// and callers (the driver walks the filesystem, fixture tests iterate a
	// map) pass packages in arbitrary order — re-derive dependency order
	// here.
	pkgs = topoPackages(pkgs)
	facts := newFacts()
	for _, pkg := range pkgs {
		pkg.Facts = facts
		for _, a := range analyzers {
			if fe, ok := a.(FactExporter); ok {
				fe.ExportFacts(pkg, facts)
			}
		}
	}
	// active names the rules whose directives the stale audit can judge: a
	// directive for a registered rule that did not run might suppress a real
	// finding. A rule known to neither set is a typo or a retired rule.
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name()] = true
	}
	known := make(map[string]bool)
	for _, a := range append(DefaultAnalyzers(), analyzers...) {
		known[a.Name()] = true
	}
	perPkg := make([][]Finding, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			dirs := collectDirectives(pkg)
			var out []Finding
			for _, a := range analyzers {
				for _, f := range a.Check(pkg) {
					if !dirs.suppress(f) {
						out = append(out, f)
					}
				}
			}
			out = append(out, dirs.problems...)
			out = append(out, dirs.stale(active, known)...)
			perPkg[i] = out
		}(i, pkg)
	}
	wg.Wait()
	var out []Finding
	for _, fs := range perPkg {
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// topoPackages orders pkgs so every import that is itself in the set
// precedes its importer. Type-checked packages cannot form cycles.
func topoPackages(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	seen := make(map[string]bool, len(pkgs))
	var out []*Package
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.Path] {
			return
		}
		seen[p.Path] = true
		for _, imp := range p.Pkg.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range sorted {
		visit(p)
	}
	return out
}

// dirEntry is one rule of one parsed //lint:ignore comment, tracked so the
// stale audit can tell which directives actually suppressed something.
type dirEntry struct {
	rule string
	pos  token.Position // the directive's own position (stale reports here)
	used bool
}

type directiveSet struct {
	// byFile maps filename → suppressed line → directive entries.
	byFile map[string]map[int][]*dirEntry
	// entries preserves parse order for deterministic stale reporting.
	entries  []*dirEntry
	problems []Finding
}

const directivePrefix = "//lint:ignore"

// collectDirectives parses every //lint:ignore comment in the package. A
// trailing directive suppresses its own line; a standalone directive
// suppresses the line below it.
func collectDirectives(pkg *Package) *directiveSet {
	ds := &directiveSet{byFile: make(map[string]map[int][]*dirEntry)}
	for _, file := range pkg.Files {
		starts := codeLineStarts(pkg.Fset, file)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					ds.problems = append(ds.problems, Finding{
						Pos:     pos,
						Rule:    "lint-directive",
						Message: "malformed directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				line := pos.Line
				if start, ok := starts[line]; !ok || start >= pos.Column {
					// Standalone comment: applies to the next line.
					line++
				}
				m := ds.byFile[pos.Filename]
				if m == nil {
					m = make(map[int][]*dirEntry)
					ds.byFile[pos.Filename] = m
				}
				for _, rule := range strings.Split(fields[0], ",") {
					e := &dirEntry{rule: rule, pos: pos}
					ds.entries = append(ds.entries, e)
					m[line] = append(m[line], e)
				}
			}
		}
	}
	return ds
}

// codeLineStarts maps each line holding a non-comment token to the column of
// its first such token, so a trailing directive can be told apart from a
// standalone one.
func codeLineStarts(fset *token.FileSet, file *ast.File) map[int]int {
	starts := make(map[int]int)
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.Comment); ok {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		p := fset.Position(n.Pos())
		if cur, ok := starts[p.Line]; !ok || p.Column < cur {
			starts[p.Line] = p.Column
		}
		return true
	})
	return starts
}

func (ds *directiveSet) suppress(f Finding) bool {
	for _, e := range ds.byFile[f.Pos.Filename][f.Pos.Line] {
		if e.rule == f.Rule {
			e.used = true
			return true
		}
	}
	return false
}

// stale reports every directive that names an active rule yet suppressed no
// finding. A suppression that outlives its violation is an allow-list entry
// nobody can audit — the code may have been fixed, the rule may have grown
// smarter, or the directive may sit on the wrong line; in all three cases
// the honest move is deleting or correcting it. A directive naming a rule
// outside known can never suppress anything and is reported as malformed.
func (ds *directiveSet) stale(active, known map[string]bool) []Finding {
	var out []Finding
	for _, e := range ds.entries {
		switch {
		case !known[e.rule]:
			out = append(out, Finding{
				Pos:     e.pos,
				Rule:    "lint-directive",
				Message: fmt.Sprintf("//lint:ignore %s names no registered rule, so it suppresses nothing; correct the rule name or delete the directive", e.rule),
			})
		case active[e.rule] && !e.used:
			out = append(out, Finding{
				Pos:  e.pos,
				Rule: "staleignore",
				Message: fmt.Sprintf("//lint:ignore %s suppresses no finding; the violation it excused is gone (or the directive is misplaced) — delete it so the allow-list stays auditable",
					e.rule),
			})
		}
	}
	return out
}

// enclosingFunc returns the name of the innermost function declaration
// containing pos, or "<init>" for package-level code. Function literals are
// attributed to their enclosing declared function.
func enclosingFunc(file *ast.File, pos token.Pos) string {
	name := "<init>"
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Pos() <= pos && pos <= fd.End() {
			name = fd.Name.Name
			break
		}
	}
	return name
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" when it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// qualifiedCallee returns, for a call on a package-qualified function
// (pkg.Fn(...)), the package path and function name; ok is false otherwise.
func qualifiedCallee(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	path := pkgNameOf(info, id)
	if path == "" {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// calleeObject resolves a call's target to its function object, for plain,
// method and package-qualified calls. Nil for indirect calls through
// non-identifier expressions.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	case *ast.IndexExpr: // explicitly instantiated generic
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return pkg.Info.Uses[id]
		}
	}
	return nil
}

// namedOf unwraps pointers and aliases to the underlying named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}
