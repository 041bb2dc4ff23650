package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// familyName is the shape of the module's metric family names.
var familyName = regexp.MustCompile(`^synergy_[a-z0-9_]+$`)

// TestEveryFamilyHasAReader keeps metrics that nothing reads from lingering:
// every synergy_* family the module's non-test code registers must be named
// by a test, a scenario spec, a benchmark file, the scenario engine's
// evaluation or a row of DESIGN §12's inventory. A family none of them names
// is code to delete. Like TestEveryInternalPackageIsImported, it reads the
// whole module.
func TestEveryFamilyHasAReader(t *testing.T) {
	const root = "../.."
	registered := make(map[string]string) // family → where
	var readers strings.Builder
	read := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		readers.Write(b)
		readers.WriteByte('\n')
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasPrefix(rel, "benchmark"+string(filepath.Separator)),
			strings.HasSuffix(rel, "_test.go"),
			strings.HasPrefix(rel, "specs"+string(filepath.Separator)) && strings.HasSuffix(rel, ".json"),
			strings.HasPrefix(rel, filepath.Join("internal", "scenario")) && strings.HasSuffix(rel, ".go"):
			read(path)
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") ||
			strings.HasPrefix(rel, "benchmark") || strings.HasPrefix(rel, filepath.Join("internal", "scenario")) {
			return nil // not a registration: a test, the benchmark, the scenario engine's reading
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A family's name is a string literal in the code that registers
		// it, directly or through a table of families.
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if name, err := strconv.Unquote(lit.Value); err == nil && familyName.MatchString(name) {
				registered[name] = fset.Position(lit.Pos()).String()
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(design)
	start, end := strings.Index(section, "\n## 12."), strings.Index(section, "\n## 13.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no section 12 ending at section 13")
	}
	for _, line := range strings.Split(section[start:end], "\n") {
		if strings.HasPrefix(line, "|") {
			readers.WriteString(line + "\n")
		}
	}
	if len(registered) == 0 {
		t.Fatal("no registered synergy_* family found")
	}
	text := readers.String()
	for name, where := range registered {
		if !regexp.MustCompile(regexp.QuoteMeta(name) + `([^a-z0-9_]|$)`).MatchString(text) {
			t.Errorf("%s (registered at %s) is named by no test, spec, benchmark file, scenario evaluation or DESIGN §12 row", name, where)
		}
	}
}
