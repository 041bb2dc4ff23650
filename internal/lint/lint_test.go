package lint

import (
	"go/token"
	"strings"
	"testing"
)

// loadFixture type-checks a set of in-memory fixture packages (import path →
// file name → source) and returns them keyed by path.
func loadFixture(t *testing.T, pkgs map[string]map[string]string) map[string]*Package {
	t.Helper()
	fset := token.NewFileSet()
	var raws []*rawPackage
	for path, files := range pkgs {
		raw, err := parseSources(fset, path, files)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		raws = append(raws, raw)
	}
	checked, err := typeCheck(fset, raws)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	out := make(map[string]*Package, len(checked))
	for _, p := range checked {
		out[p.Path] = p
	}
	return out
}

// runFixture loads the fixture and runs the analyzer through Run, as the real
// driver does.
func runFixture(t *testing.T, a Analyzer, pkgs map[string]map[string]string) []Finding {
	t.Helper()
	loaded := loadFixture(t, pkgs)
	all := make([]*Package, 0, len(loaded))
	for _, p := range loaded {
		all = append(all, p)
	}
	return Run(all, []Analyzer{a})
}

// wantFindings asserts the findings match the expected (line, rule, message
// substring) triples in order.
func wantFindings(t *testing.T, got []Finding, want []struct {
	line int
	rule string
	msg  string
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Pos.Line != w.line || g.Rule != w.rule || !strings.Contains(g.Message, w.msg) {
			t.Errorf("finding %d = %v; want line %d rule %s message containing %q", i, g, w.line, w.rule, w.msg)
		}
	}
}

func TestRunSortsAcrossFilesAndPackages(t *testing.T) {
	src := func(pkg string) string {
		return "package " + pkg + `

type Conn struct{}

func (Conn) Send(b []byte) error { return nil }

func Use(c Conn) { c.Send(nil) }
`
	}
	got := runFixture(t, NewUncheckedErr(), map[string]map[string]string{
		"example.com/b": {"b.go": src("b")},
		"example.com/a": {"a.go": src("a")},
	})
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
	if !(got[0].Pos.Filename < got[1].Pos.Filename) {
		t.Errorf("findings not sorted by file: %v", got)
	}
}
